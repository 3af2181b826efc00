open Rapid_prelude
open Rapid_sim

type holder = { n_meet : int; updated_at : float }
type entry = { packet : Packet.t; holder_id : int; holder : holder }

type record = { packet : Packet.t; holders : (int, holder) Hashtbl.t }

type t = {
  (* Indexed by packet id (ids are dense: the engine hands them out in
     workload order); [None] = unknown or forgotten. *)
  mutable records : record option array;
  (* Update log in append order, as parallel arrays of (log time, packet
     id, holder id). Lets a delta walk only the recent suffix instead
     of scanning every record. Log times are clamped to be non-decreasing
     (gossip can carry old origin timestamps), so the suffix boundary is a
     binary search; emission re-checks the entry's real [updated_at], so
     clamping can only widen the walk, never lose an entry. Superseded or
     deleted entries are filtered during the walk. *)
  mutable log_times : float array;
  mutable log_pids : int array;
  mutable log_hids : int array;
  mutable log_len : int;
  mutable log_newest : float;
}

(* Bound on log length: beyond it the oldest deltas are discarded, so a
   peer that has not exchanged for a very long time receives a truncated
   (bounded-staleness) delta instead of the full history. This keeps
   memory and per-contact work proportional to recent activity. *)
let max_log = 8_000

let create () =
  {
    records = [||];
    log_times = [||];
    log_pids = [||];
    log_hids = [||];
    log_len = 0;
    log_newest = neg_infinity;
  }

let log_update t ~time ~packet_id ~holder_id =
  let time = Float.max time t.log_newest in
  t.log_newest <- time;
  let cap = Array.length t.log_times in
  if t.log_len = cap then begin
    let grow a fill =
      let g = Array.make (max 64 (2 * cap)) fill in
      Array.blit a 0 g 0 t.log_len;
      g
    in
    t.log_times <- grow t.log_times 0.0;
    t.log_pids <- grow t.log_pids 0;
    t.log_hids <- grow t.log_hids 0
  end;
  t.log_times.(t.log_len) <- time;
  t.log_pids.(t.log_len) <- packet_id;
  t.log_hids.(t.log_len) <- holder_id;
  t.log_len <- t.log_len + 1;
  if t.log_len > 2 * max_log then begin
    (* Amortized truncation: keep the newest half. *)
    let src = t.log_len - max_log in
    Array.blit t.log_times src t.log_times 0 max_log;
    Array.blit t.log_pids src t.log_pids 0 max_log;
    Array.blit t.log_hids src t.log_hids 0 max_log;
    t.log_len <- max_log
  end

let find_record t packet_id =
  if packet_id < Array.length t.records then t.records.(packet_id) else None

let set_record t packet_id r =
  let cap = Array.length t.records in
  if packet_id >= cap then begin
    let g = Array.make (max 256 (2 * (packet_id + 1))) None in
    Array.blit t.records 0 g 0 cap;
    t.records <- g
  end;
  t.records.(packet_id) <- r

let record_of t (packet : Packet.t) =
  match find_record t packet.Packet.id with
  | Some r -> r
  | None ->
      let r = { packet; holders = Hashtbl.create 4 } in
      set_record t packet.Packet.id (Some r);
      r

let set_holder t ~packet ~holder_id ~n_meet ~now =
  let r = record_of t packet in
  Hashtbl.replace r.holders holder_id { n_meet; updated_at = now };
  log_update t ~time:now ~packet_id:packet.Packet.id ~holder_id

let merge t ~packet ~holder_id ~holder =
  let r = record_of t packet in
  match Hashtbl.find_opt r.holders holder_id with
  | Some existing when existing.updated_at >= holder.updated_at -> false
  | Some _ | None ->
      Hashtbl.replace r.holders holder_id holder;
      log_update t ~time:holder.updated_at ~packet_id:packet.Packet.id ~holder_id;
      true

let remove_holder t ~packet_id ~holder_id =
  match find_record t packet_id with
  | None -> ()
  | Some r ->
      Hashtbl.remove r.holders holder_id;
      if Hashtbl.length r.holders = 0 then set_record t packet_id None

let remove_packet t ~packet_id =
  if packet_id < Array.length t.records then t.records.(packet_id) <- None

let holders t ~packet_id =
  match find_record t packet_id with
  | None -> []
  | Some r ->
      Hashtbl.fold (fun id h acc -> (id, h) :: acc) r.holders []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let fold_holders t ~packet_id ~init ~f =
  match find_record t packet_id with
  | None -> init
  | Some r -> Hashtbl.fold (fun id h acc -> f acc id h) r.holders init

let holder_count t ~packet_id =
  match find_record t packet_id with
  | None -> 0
  | Some r -> Hashtbl.length r.holders

let find_holder t ~packet_id ~holder_id =
  match find_record t packet_id with
  | None -> None
  | Some r -> Hashtbl.find_opt r.holders holder_id

let known_packet t ~packet_id =
  Option.map (fun r -> r.packet) (find_record t packet_id)

(* First log index with time > threshold (times are non-decreasing). *)
let suffix_start t threshold =
  let lo = ref 0 and hi = ref t.log_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.log_times.(mid) <= threshold then lo := mid + 1 else hi := mid
  done;
  !lo

let materialize t threshold ~packet_id ~holder_id =
  match find_record t packet_id with
  | None -> None (* forgotten (acked) *)
  | Some r -> (
      match Hashtbl.find_opt r.holders holder_id with
      | Some holder when holder.updated_at > threshold ->
          Some { packet = r.packet; holder_id; holder }
      | Some _ | None -> None)

let iter_ids_since t threshold f =
  for i = suffix_start t threshold to t.log_len - 1 do
    f ~packet_id:(Array.unsafe_get t.log_pids i)
      ~holder_id:(Array.unsafe_get t.log_hids i)
  done

(* Holder lookup without the two option boxes of [find_holder]; raises
   [Not_found] when the packet or the holder is unknown. *)
let find_exn t ~packet_id ~holder_id =
  match find_record t packet_id with
  | Some r -> Hashtbl.find r.holders holder_id
  | None -> raise Not_found

(* Working memory of [ship_delta], reused across calls: the generation-
   stamped dedup set (seen(k) iff [seen.(k) = gen], so "clearing" is one
   counter bump), the candidates as parallel key / updated_at arrays, and
   the index permutation that ranks them. *)
type delta_scratch = {
  mutable seen : int array;
  mutable gen : int;
  mutable keys : int array;
  mutable upd : float array;
  mutable len : int;
  order : int Sortbuf.t;
}

let delta_scratch () =
  { seen = [||]; gen = 0; keys = [||]; upd = [||]; len = 0;
    order = Sortbuf.create () }

let ship_delta s t ~num_nodes ~since ~eligible ~backlog ~budget ~ship =
  s.gen <- s.gen + 1;
  s.len <- 0;
  let gen = s.gen in
  (* Marks [k] seen; true iff it was not seen before in this call. *)
  let first_visit k =
    let cap = Array.length s.seen in
    if k >= cap then begin
      let g = Array.make (max 1024 (2 * (k + 1))) 0 in
      Array.blit s.seen 0 g 0 cap;
      s.seen <- g
    end;
    if Array.unsafe_get s.seen k = gen then false
    else begin
      Array.unsafe_set s.seen k gen;
      true
    end
  in
  let push k updated_at =
    let cap = Array.length s.keys in
    if s.len = cap then begin
      let n = max 64 (2 * cap) in
      let keys = Array.make n 0 and upd = Array.make n 0.0 in
      Array.blit s.keys 0 keys 0 s.len;
      Array.blit s.upd 0 upd 0 s.len;
      s.keys <- keys;
      s.upd <- upd
    end;
    s.keys.(s.len) <- k;
    s.upd.(s.len) <- updated_at;
    s.len <- s.len + 1
  in
  (* Deferred keys are re-checked against the live db with no [since]
     threshold: one acked or dropped since it was deferred has vanished
     (and is not marked, so the log walk may still consider it); a
     survivor ships its freshest holder info. *)
  for i = 0 to Sortbuf.length backlog - 1 do
    let k = Sortbuf.get backlog i in
    let packet_id = k / num_nodes in
    match find_exn t ~packet_id ~holder_id:(k mod num_nodes) with
    | h -> if first_visit k && eligible packet_id then push k h.updated_at
    | exception Not_found -> ()
  done;
  (* The raw log suffix may visit a key several times; every occurrence
     would read the same current-db value, so the first one decides (it
     is marked before its [since] test). *)
  for i = suffix_start t since to t.log_len - 1 do
    let packet_id = Array.unsafe_get t.log_pids i
    and holder_id = Array.unsafe_get t.log_hids i in
    let k = (packet_id * num_nodes) + holder_id in
    if first_visit k then
      match find_exn t ~packet_id ~holder_id with
      | h ->
          if h.updated_at > since && eligible packet_id then
            push k h.updated_at
      | exception Not_found -> ()
  done;
  (* Oldest first, by (updated_at, key): the key orders (packet id,
     holder id) because holder ids are below [num_nodes], so the order is
     total and the partial selection deterministic. *)
  let order = s.order in
  Sortbuf.clear order;
  for i = 0 to s.len - 1 do
    Sortbuf.push order i
  done;
  let keys = s.keys and upd = s.upd in
  Sortbuf.select order budget ~cmp:(fun i j ->
      match Float.compare upd.(i) upd.(j) with
      | 0 -> Int.compare keys.(i) keys.(j)
      | n -> n);
  let sent = max 0 (min budget s.len) in
  for i = 0 to sent - 1 do
    let k = keys.(Sortbuf.get order i) in
    let r = Option.get (find_record t (k / num_nodes)) in
    let holder_id = k mod num_nodes in
    ship r.packet ~holder_id (Hashtbl.find r.holders holder_id)
  done;
  Sortbuf.clear backlog;
  for i = sent to s.len - 1 do
    Sortbuf.push backlog keys.(Sortbuf.get order i)
  done;
  sent

let entries_since t threshold =
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let lo = suffix_start t threshold in
  let acc = ref [] in
  (* Newest first so the dedup keeps the freshest occurrence; the
     materialized value is the same either way (always the current db
     state), but the order reported is roughly newest first, which is
     what truncation fairness on the control channel wants. *)
  for i = t.log_len - 1 downto lo do
    let packet_id = t.log_pids.(i) and holder_id = t.log_hids.(i) in
    if not (Hashtbl.mem seen (packet_id, holder_id)) then begin
      Hashtbl.replace seen (packet_id, holder_id) ();
      match materialize t threshold ~packet_id ~holder_id with
      | Some e -> acc := e :: !acc
      | None -> ()
    end
  done;
  List.rev !acc

let size t =
  Array.fold_left
    (fun acc -> function Some r -> acc + Hashtbl.length r.holders | None -> acc)
    0 t.records
