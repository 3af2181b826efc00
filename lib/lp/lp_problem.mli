(** Linear / integer program description.

    This is the interface the Optimal routing baseline targets; the paper
    used CPLEX [10], which is closed source, so we solve the same programs
    with our own simplex ({!Simplex}) and branch-and-bound ({!Ilp}).

    Conventions: all variables are nonnegative; the objective is always
    minimized. Each variable carries column bounds [l, u] (default
    [0, +inf)): the bounded-variable simplex ({!Simplex}) handles them in
    the ratio test, so a bound costs no tableau row — prefer
    {!set_upper}/{!set_lower} over singleton [Le]/[Ge] constraints. *)

type relation = Le | Eq | Ge

type constr = {
  coeffs : (int * float) list;  (** Sparse row: (variable index, coefficient). *)
  relation : relation;
  rhs : float;
}

type t

val create : num_vars:int -> t
(** A problem over variables [0 .. num_vars-1], objective initially 0. *)

val num_vars : t -> int

val set_objective : t -> (int * float) list -> unit
(** Sparse minimization objective; unmentioned variables have cost 0. *)

val add_constraint : t -> (int * float) list -> relation -> float -> unit

val set_lower : t -> int -> float -> unit
(** Column lower bound; must be >= 0 (the paper's programs are over
    nonnegative flows). Default 0. *)

val set_upper : t -> int -> float -> unit
(** Column upper bound; default +inf. *)

val bounds : t -> (float * float) array
(** Per-variable (lower, upper). *)

val mark_integer : t -> int -> unit
(** Require the variable to take an integer value (for {!Ilp}). Marking
    a variable again is a no-op, in constant time. *)

val integer_vars : t -> int list
(** The integer variables, in the order of their first marks. *)

val objective : t -> float array
val constraints : t -> constr list
(** In insertion order. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line size summary (vars / constraints / integers). *)
