open Rapid_prelude

type t = {
  n : int;
  gaps : Dense.Cumulative_grid.t;  (* upper triangle used *)
  last_meeting : Dense.Mat.t;  (* nan = never met *)
  (* Materialized direct estimate d1: mean gap, [infinity] for never-met
     pairs, 0 on the diagonal. Kept current cell-by-cell on [observe] so a
     row build never recomputes n² divisions. *)
  direct : Dense.Mat.t;
  mutable updates : int;
  (* Epoch counter: bumped whenever a direct mean changes. A memoized row
     whose [row_epoch] lags behind is stale; nothing is recomputed until
     that source is queried again. *)
  mutable epoch : int;
  rows : float array array;  (* rows.(a): ≤h-hop row from a; [||] = never built *)
  row_epoch : int array;
  row_h : int array;
  scratch : Dense.Scratch.t;
}

let create ~num_nodes =
  let direct = Dense.Mat.create ~init:infinity num_nodes in
  for i = 0 to num_nodes - 1 do
    Dense.Mat.set direct i i 0.0
  done;
  {
    n = num_nodes;
    gaps = Dense.Cumulative_grid.create num_nodes;
    last_meeting = Dense.Mat.create ~init:nan num_nodes;
    direct;
    updates = 0;
    epoch = 0;
    rows = Array.make num_nodes [||];
    row_epoch = Array.make num_nodes (-1);
    row_h = Array.make num_nodes 0;
    scratch = Dense.Scratch.create ();
  }

let key a b = if a < b then (a, b) else (b, a)

(* Row builds are the matrix's dominant cost (O(h·n²) each); counter and
   timer make the lazy cache's effectiveness visible in --json /
   BENCH.json output. *)
let c_row_builds = Rapid_obs.Counter.create "meeting_matrix.row_builds"
let t_row_build = Rapid_obs.Timer.create "meeting_matrix.row_build"

let observe t ~now ~a ~b =
  if a = b then invalid_arg "Meeting_matrix.observe: self-meeting";
  let x, y = key a b in
  let last = Dense.Mat.get t.last_meeting x y in
  let gap = if Float.is_nan last then now else now -. last in
  (* A zero gap (two meetings at the same instant) carries no information
     about the meeting process; the average must stay positive. No mean
     changed, so memoized rows stay valid — the epoch is left alone. *)
  if gap > 0.0 then begin
    Dense.Cumulative_grid.add t.gaps x y gap;
    let mean = Dense.Cumulative_grid.value_or t.gaps x y ~default:infinity in
    Dense.Mat.set t.direct x y mean;
    Dense.Mat.set t.direct y x mean;
    t.epoch <- t.epoch + 1
  end;
  Dense.Mat.set t.last_meeting x y now;
  t.updates <- t.updates + 1

let direct_mean t a b =
  if a = b then Some 0.0
  else begin
    let x, y = key a b in
    Dense.Cumulative_grid.value t.gaps x y
  end

(* Min-plus row relaxation from [a]: r_k(x) is the cheapest expected time
   between [a] and [x] using at most k hops; each pass appends one hop
   (r_{k+1}(x) = min(r_k(x), min_y r_k(y) + d1(y,x))). The former full
   O(h·n³) closure prepended hops instead — float addition is not
   associative, so the two parenthesize path sums differently. But d1 is
   symmetric and float addition commutes, so reversing each walk shows
   [build_row a].(x) is bit-for-bit the old [closure.(x).(a)]: this row
   is exactly the old closure's *column* of [a]. Queries therefore key
   the lazy row on their second argument and read it at the first. *)
let build_row t ~h a =
  Rapid_obs.Counter.incr c_row_builds;
  Rapid_obs.Timer.time t_row_build @@ fun () ->
  let n = t.n in
  let d = Dense.Mat.data t.direct in
  let cur, next = Dense.Scratch.rows t.scratch n in
  Array.blit d (a * n) cur 0 n;
  let cur = ref cur and next = ref next in
  for _ = 2 to h do
    Array.blit !cur 0 !next 0 n;
    let nx = !next in
    let cu = !cur in
    for y = 0 to n - 1 do
      let cy = Array.unsafe_get cu y in
      (* An unreachable relay can't improve anything: skip its d1 row. *)
      if Float.is_finite cy then begin
        let base = y * n in
        for b = 0 to n - 1 do
          let v = cy +. Array.unsafe_get d (base + b) in
          if v < Array.unsafe_get nx b then Array.unsafe_set nx b v
        done
      end
    done;
    let tmp = !cur in
    cur := !next;
    next := tmp
  done;
  let fresh = !cur in
  (* Reuse the row array in place: callers borrow it only until the next
     [observe]. *)
  let row =
    if Array.length t.rows.(a) = n then t.rows.(a)
    else begin
      let r = Array.make n 0.0 in
      t.rows.(a) <- r;
      r
    end
  in
  Array.blit fresh 0 row 0 n;
  t.row_epoch.(a) <- t.epoch;
  t.row_h.(a) <- h;
  row

(* The up-to-date ≤h-hop row keyed on [b] (same lazy build a query
   triggers). Borrowed, not owned: valid only until the next [observe] —
   hot loops that score many holders against one destination read it
   directly instead of re-validating per [expected_meeting_time] call. *)
let row ?(h = 3) t b =
  if t.row_epoch.(b) = t.epoch && t.row_h.(b) = h then t.rows.(b)
  else build_row t ~h b

let expected_meeting_time ?(h = 3) t a b =
  if a = b then 0.0
  else begin
    (* The row keyed on [b] holds the old closure's (·,b) column; in the
       protocol [b] is the packet destination, so one contact touches few
       distinct rows even when it scores many holders. *)
    (row ~h t b).(a)
  end

let updates_count t = t.updates

let global_mean t =
  let w = Stats.Welford.create () in
  for a = 0 to t.n - 1 do
    for b = a + 1 to t.n - 1 do
      match Dense.Cumulative_grid.value t.gaps a b with
      | Some v -> Stats.Welford.add w v
      | None -> ()
    done
  done;
  if Stats.Welford.count w = 0 then None else Some (Stats.Welford.mean w)
