(* Measurement taken from outside the program's layers: a monotonic
   clock, a functor that times every [Protocol.S] hook, snapshots of the
   program's own counter and timer registries, and a per-cycle table of
   additive per-layer figures. *)

open Rapid_sim

(* Integers throughout the hook path: a float accumulator or argument
   would be boxed on every call and the wrapper would allocate, which
   [<p>.hook_mwords] would then count as the protocol's. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9
let minor_words () = int_of_float (Gc.minor_words ())

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* ------------------------------------------------------------------ *)
(* Host speed. The benchmark's machine is shared and its speed drifts by
   a third over minutes: the same cycle, allocating the same words, took
   8.4 s to 13.4 s. [reference_s] times a fixed computation that uses the
   standard library only, so no change to the program can speed it up:
   sorting (compares and branches) and random access to memory well
   beyond the caches. It allocates nothing, so it leaves the heap
   figures alone. *)

let reference_source =
  lazy
    (let rng = Random.State.make [| 7 |] in
     Array.init 50_000 (fun _ -> Random.State.bits rng))

let reference_work = lazy (Array.make 50_000 0)

(* Off the OCaml heap: 32 MB. *)
let reference_area =
  lazy (Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 22))

let reference_s () =
  let src = Lazy.force reference_source
  and work = Lazy.force reference_work
  and area = Lazy.force reference_area in
  let t0 = now_s () in
  for _ = 1 to 2 do
    Array.blit src 0 work 0 (Array.length src);
    Array.sort Int.compare work
  done;
  let x = ref 1 in
  for _ = 1 to 600_000 do
    x := ((!x * 1103515245) + 12345) land ((1 lsl 22) - 1);
    area.{!x} <- area.{!x} + 1
  done;
  now_s () -. t0

(* ------------------------------------------------------------------ *)
(* Per-layer figures of one cycle: name -> additive value. *)

type table = (string, float) Hashtbl.t

let add (t : table) name v =
  Hashtbl.replace t name (v +. Option.value ~default:0.0 (Hashtbl.find_opt t name))

let get (t : table) name = Option.value ~default:0.0 (Hashtbl.find_opt t name)

(* ------------------------------------------------------------------ *)
(* Protocol hooks. *)

let hook_names =
  [|
    "create"; "on_created"; "on_contact"; "next_packet"; "on_transfer";
    "drop_candidate"; "on_dropped"; "on_reboot";
  |]

let n_hooks = Array.length hook_names

type hooks = { ns : int array; calls : int array; words : int array }

let hooks () =
  {
    ns = Array.make n_hooks 0;
    calls = Array.make n_hooks 0;
    words = Array.make n_hooks 0;
  }

let[@inline] stop h i t0 w0 =
  h.ns.(i) <- h.ns.(i) + (now_ns () - t0);
  h.calls.(i) <- h.calls.(i) + 1;
  h.words.(i) <- h.words.(i) + (minor_words () - w0)

module Hooked (A : sig
  val h : hooks
end)
(P : Protocol.S) : Protocol.S = struct
  type t = P.t

  let name = P.name
  let h = A.h

  let create env =
    let t0 = now_ns () and w0 = minor_words () in
    let r = P.create env in
    stop h 0 t0 w0;
    r

  let on_created t ~now p =
    let t0 = now_ns () and w0 = minor_words () in
    P.on_created t ~now p;
    stop h 1 t0 w0

  let on_contact t ci =
    let t0 = now_ns () and w0 = minor_words () in
    let r = P.on_contact t ci in
    stop h 2 t0 w0;
    r

  let next_packet t ~now ~sender ~receiver ~budget =
    let t0 = now_ns () and w0 = minor_words () in
    let r = P.next_packet t ~now ~sender ~receiver ~budget in
    stop h 3 t0 w0;
    r

  let on_transfer t ~now ~sender ~receiver p ~delivered =
    let t0 = now_ns () and w0 = minor_words () in
    P.on_transfer t ~now ~sender ~receiver p ~delivered;
    stop h 4 t0 w0

  let drop_candidate t ~now ~node ~incoming =
    let t0 = now_ns () and w0 = minor_words () in
    let r = P.drop_candidate t ~now ~node ~incoming in
    stop h 5 t0 w0;
    r

  let on_dropped t ~now ~node p =
    let t0 = now_ns () and w0 = minor_words () in
    P.on_dropped t ~now ~node p;
    stop h 6 t0 w0

  let on_reboot t ~now ~node ~lost =
    let t0 = now_ns () and w0 = minor_words () in
    P.on_reboot t ~now ~node ~lost;
    stop h 7 t0 w0
end

let hooked h (module P : Protocol.S) : Protocol.packed =
  (module Hooked (struct let h = h end) (P))

(* [<p>.<hook>_s] and [_calls] for every hook, plus the hooks' total
   time and minor words. *)
let add_hooks table ~proto h =
  Array.iteri
    (fun i name ->
      add table (Printf.sprintf "%s.%s_s" proto name)
        (float_of_int h.ns.(i) *. 1e-9);
      add table (Printf.sprintf "%s.%s_calls" proto name)
        (float_of_int h.calls.(i)))
    hook_names;
  add table (proto ^ ".hooks_s") (float_of_int (Array.fold_left ( + ) 0 h.ns) *. 1e-9);
  add table (proto ^ ".hook_mwords")
    (float_of_int (Array.fold_left ( + ) 0 h.words) /. 1e6)

(* ------------------------------------------------------------------ *)
(* The program's own registries, read by snapshot around each cell. *)

type registry = {
  counters : (string * int) list;
  timers : (string * float * int) list;
}

let registry () =
  { counters = Rapid_obs.Counter.snapshot (); timers = Rapid_obs.Timer.snapshot () }

(* Counter deltas by name (zero deltas omitted), timer deltas as
   [<name>_s]. *)
let registry_delta before after =
  let counters =
    List.filter_map
      (fun (k, v) ->
        let d = v - Option.value ~default:0 (List.assoc_opt k before.counters) in
        if d = 0 then None else Some (k, d))
      after.counters
  in
  let timers =
    List.filter_map
      (fun (k, s, n) ->
        let s0, n0 =
          match List.find_opt (fun (k', _, _) -> k' = k) before.timers with
          | Some (_, s0, n0) -> (s0, n0)
          | None -> (0.0, 0)
        in
        if n = n0 then None else Some (k ^ "_s", s -. s0))
      after.timers
  in
  (counters, timers)
