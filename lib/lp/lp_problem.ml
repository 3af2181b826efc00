type relation = Le | Eq | Ge

type constr = {
  coeffs : (int * float) list;
  relation : relation;
  rhs : float;
}

type t = {
  n : int;
  obj : float array;
  lb : float array;
  ub : float array;
  mutable rows : constr list;  (* reversed *)
  mutable num_rows : int;
  mutable integers : int list;  (* reversed order of first marks *)
  is_integer : bool array;
}

let create ~num_vars =
  assert (num_vars > 0);
  {
    n = num_vars;
    obj = Array.make num_vars 0.0;
    lb = Array.make num_vars 0.0;
    ub = Array.make num_vars infinity;
    rows = [];
    num_rows = 0;
    integers = [];
    is_integer = Array.make num_vars false;
  }

let num_vars t = t.n

let check_var t i =
  if i < 0 || i >= t.n then invalid_arg "Lp_problem: variable out of range"

let set_objective t coeffs =
  Array.fill t.obj 0 t.n 0.0;
  List.iter
    (fun (i, c) ->
      check_var t i;
      t.obj.(i) <- c)
    coeffs

let add_constraint t coeffs relation rhs =
  List.iter (fun (i, _) -> check_var t i) coeffs;
  t.rows <- { coeffs; relation; rhs } :: t.rows;
  t.num_rows <- t.num_rows + 1

let set_lower t i l =
  check_var t i;
  if l < 0.0 then invalid_arg "Lp_problem.set_lower: negative lower bound";
  t.lb.(i) <- l

let set_upper t i u =
  check_var t i;
  if u < 0.0 then invalid_arg "Lp_problem.set_upper: negative upper bound";
  t.ub.(i) <- u

let bounds t = Array.init t.n (fun i -> (t.lb.(i), t.ub.(i)))

let mark_integer t i =
  check_var t i;
  if not t.is_integer.(i) then begin
    t.is_integer.(i) <- true;
    t.integers <- i :: t.integers
  end

let integer_vars t = List.rev t.integers
let objective t = Array.copy t.obj
let constraints t = List.rev t.rows

let pp_stats fmt t =
  Format.fprintf fmt "lp: %d vars, %d constraints, %d integer" t.n t.num_rows
    (List.length t.integers)
