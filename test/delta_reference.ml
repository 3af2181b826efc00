(* Reference implementation of one direction of RAPID's replica delta:
   the boxed-entry, tuple-keyed backlog version that the flat
   [Replica_db.ship_delta] replaced. Kept verbatim in behaviour as the
   oracle of the delta-equivalence property in test_core: a deferred key
   is re-materialized from the current db with no threshold (and marked
   seen only if it still exists), a log key is marked seen before its
   [updated_at > since] test, the whole candidate set is sorted oldest
   first by (updated_at, packet id, holder id), the first [budget] ship
   and the rest become the new backlog. *)

open Rapid_sim
open Rapid_core

type backlog = (int * int, unit) Hashtbl.t

let cmp_delta (x : Replica_db.entry) (y : Replica_db.entry) =
  match
    Float.compare x.Replica_db.holder.Replica_db.updated_at
      y.Replica_db.holder.Replica_db.updated_at
  with
  | 0 -> (
      match
        Int.compare x.Replica_db.packet.Packet.id y.Replica_db.packet.Packet.id
      with
      | 0 -> Int.compare x.Replica_db.holder_id y.Replica_db.holder_id
      | n -> n)
  | n -> n

let materialize db ~packet_id ~holder_id =
  match Replica_db.known_packet db ~packet_id with
  | None -> None
  | Some packet -> (
      match Replica_db.find_holder db ~packet_id ~holder_id with
      | None -> None
      | Some holder -> Some { Replica_db.packet; holder_id; holder })

(* Returns the shipped entries in shipping order and the new backlog
   ([None] when nothing was left unsent). *)
let ship_delta db ~since ~eligible ~(backlog : backlog option)
    ~budget =
  let deferred =
    match backlog with
    | None -> []
    | Some set ->
        Hashtbl.fold
          (fun (packet_id, holder_id) () acc ->
            match materialize db ~packet_id ~holder_id with
            | Some e -> e :: acc
            | None -> acc)
          set []
  in
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let delta = ref [] in
  let consider (e : Replica_db.entry) =
    let key = (e.Replica_db.packet.Packet.id, e.Replica_db.holder_id) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      if eligible e.Replica_db.packet.Packet.id then delta := e :: !delta
    end
  in
  List.iter consider deferred;
  Replica_db.iter_ids_since db since (fun ~packet_id ~holder_id ->
      if not (Hashtbl.mem seen (packet_id, holder_id)) then begin
        Hashtbl.replace seen (packet_id, holder_id) ();
        match materialize db ~packet_id ~holder_id with
        | Some e
          when e.Replica_db.holder.Replica_db.updated_at > since
               && eligible packet_id ->
            delta := e :: !delta
        | Some _ | None -> ()
      end);
  let sorted = List.sort cmp_delta !delta in
  let shipped = List.filteri (fun i _ -> i < budget) sorted in
  let unsent = List.filteri (fun i _ -> i >= budget) sorted in
  let backlog =
    match unsent with
    | [] -> None
    | _ ->
        let set = Hashtbl.create 16 in
        List.iter
          (fun (e : Replica_db.entry) ->
            Hashtbl.replace set
              (e.Replica_db.packet.Packet.id, e.Replica_db.holder_id) ())
          unsent;
        Some set
  in
  (shipped, backlog)
