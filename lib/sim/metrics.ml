type outcome = { packet : Packet.t; mutable delivered_at : float option }

type t = {
  duration : float;
  packets : (int, outcome) Hashtbl.t;
  mutable created : int;
  mutable delivered : int;
  mutable data_bytes : int;
  mutable metadata_bytes : int;
  mutable capacity_bytes : int;
  mutable num_contacts : int;
  mutable drops : int;
  mutable ack_purges : int;
  mutable transfers : int;
}

let create ~duration =
  {
    duration;
    packets = Hashtbl.create 1024;
    created = 0;
    delivered = 0;
    data_bytes = 0;
    metadata_bytes = 0;
    capacity_bytes = 0;
    num_contacts = 0;
    drops = 0;
    ack_purges = 0;
    transfers = 0;
  }

let record_created t p =
  t.created <- t.created + 1;
  Hashtbl.replace t.packets p.Packet.id { packet = p; delivered_at = None }

let record_delivered t p ~now =
  match Hashtbl.find_opt t.packets p.Packet.id with
  | None -> invalid_arg "Metrics.record_delivered: unknown packet"
  | Some o -> (
      match o.delivered_at with
      | Some _ -> () (* duplicate arrival at destination: count once *)
      | None ->
          o.delivered_at <- Some now;
          t.delivered <- t.delivered + 1)

let record_contact t ~capacity =
  t.num_contacts <- t.num_contacts + 1;
  t.capacity_bytes <- t.capacity_bytes + capacity

let record_transfer t ~bytes =
  t.transfers <- t.transfers + 1;
  t.data_bytes <- t.data_bytes + bytes

let record_metadata t ~bytes = t.metadata_bytes <- t.metadata_bytes + bytes
let record_drop t = t.drops <- t.drops + 1
let record_ack_purge t = t.ack_purges <- t.ack_purges + 1

type report = {
  duration : float;
  created : int;
  delivered : int;
  delivery_rate : float;
  avg_delay : float;
  avg_delay_all : float;
  max_delay : float;
  within_deadline : int;
  within_deadline_rate : float;
  data_bytes : int;
  metadata_bytes : int;
  capacity_bytes : int;
  num_contacts : int;
  utilization : float;
  metadata_frac_bandwidth : float;
  metadata_frac_data : float;
  drops : int;
  ack_purges : int;
  transfers : int;
  delays : float array;
  pair_delays : ((int * int) * float array) array;
  outcomes : (int * float * float option) array;
}

let report t =
  let outcomes =
    Hashtbl.fold (fun _ o acc -> o :: acc) t.packets []
    |> List.sort (fun a b -> Int.compare a.packet.Packet.id b.packet.Packet.id)
  in
  let delays = ref [] in
  let sum_all = ref 0.0 in
  let max_delay = ref 0.0 in
  let within = ref 0 in
  let pair_tbl : (int * int, float list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun o ->
      let p = o.packet in
      match o.delivered_at with
      | Some at ->
          let d = at -. p.Packet.created in
          delays := d :: !delays;
          sum_all := !sum_all +. d;
          if d > !max_delay then max_delay := d;
          (match p.Packet.deadline with
          | Some dl when at <= dl -> incr within
          | Some _ | None -> ());
          let key = (p.Packet.src, p.Packet.dst) in
          let cell =
            match Hashtbl.find_opt pair_tbl key with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.replace pair_tbl key r;
                r
          in
          cell := d :: !cell
      | None -> sum_all := !sum_all +. (t.duration -. p.Packet.created))
    outcomes;
  let delays = Array.of_list (List.rev !delays) in
  let createdf = float_of_int t.created in
  let pair_delays =
    Hashtbl.fold (fun k v acc -> (k, Array.of_list (List.rev !v)) :: acc) pair_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> Array.of_list
  in
  {
    duration = t.duration;
    created = t.created;
    delivered = t.delivered;
    delivery_rate = (if t.created = 0 then 0.0 else float_of_int t.delivered /. createdf);
    avg_delay =
      (if Array.length delays = 0 then nan
       else Array.fold_left ( +. ) 0.0 delays /. float_of_int (Array.length delays));
    avg_delay_all = (if t.created = 0 then nan else !sum_all /. createdf);
    max_delay = (if t.delivered = 0 then nan else !max_delay);
    within_deadline = !within;
    within_deadline_rate =
      (if t.created = 0 then 0.0 else float_of_int !within /. createdf);
    data_bytes = t.data_bytes;
    metadata_bytes = t.metadata_bytes;
    capacity_bytes = t.capacity_bytes;
    num_contacts = t.num_contacts;
    utilization =
      (if t.capacity_bytes = 0 then 0.0
       else float_of_int (t.data_bytes + t.metadata_bytes) /. float_of_int t.capacity_bytes);
    metadata_frac_bandwidth =
      (if t.capacity_bytes = 0 then 0.0
       else float_of_int t.metadata_bytes /. float_of_int t.capacity_bytes);
    metadata_frac_data =
      (if t.data_bytes = 0 then 0.0
       else float_of_int t.metadata_bytes /. float_of_int t.data_bytes);
    drops = t.drops;
    ack_purges = t.ack_purges;
    transfers = t.transfers;
    delays;
    pair_delays;
    outcomes =
      Array.of_list
        (List.map
           (fun o -> (o.packet.Packet.id, o.packet.Packet.created, o.delivered_at))
           outcomes);
  }

(* [List.map f (Array.to_list a)] without the intermediate list. *)
let json_list_of_array f a = Array.fold_right (fun x acc -> f x :: acc) a []
let json_float f = Rapid_obs.Json.Float f

let report_to_json (r : report) =
  let open Rapid_obs in
  Json.Obj
    [
      ("duration", Json.Float r.duration);
      ("created", Json.Int r.created);
      ("delivered", Json.Int r.delivered);
      ("delivery_rate", Json.Float r.delivery_rate);
      ("avg_delay", Json.Float r.avg_delay);
      ("avg_delay_all", Json.Float r.avg_delay_all);
      ("max_delay", Json.Float r.max_delay);
      ("within_deadline", Json.Int r.within_deadline);
      ("within_deadline_rate", Json.Float r.within_deadline_rate);
      ("data_bytes", Json.Int r.data_bytes);
      ("metadata_bytes", Json.Int r.metadata_bytes);
      ("capacity_bytes", Json.Int r.capacity_bytes);
      ("num_contacts", Json.Int r.num_contacts);
      ("utilization", Json.Float r.utilization);
      ("metadata_frac_bandwidth", Json.Float r.metadata_frac_bandwidth);
      ("metadata_frac_data", Json.Float r.metadata_frac_data);
      ("drops", Json.Int r.drops);
      ("ack_purges", Json.Int r.ack_purges);
      ("transfers", Json.Int r.transfers);
      ("delays", Json.List (json_list_of_array json_float r.delays));
      ("pair_delays",
       Json.List
         (json_list_of_array
            (fun ((src, dst), delays) ->
              Json.Obj
                [
                  ("src", Json.Int src);
                  ("dst", Json.Int dst);
                  ("delays", Json.List (json_list_of_array json_float delays));
                ])
            r.pair_delays));
      ("outcomes",
       Json.List
         (json_list_of_array
            (fun (id, created, delivered_at) ->
              Json.Obj
                [
                  ("id", Json.Int id);
                  ("created", Json.Float created);
                  ("delivered_at",
                   match delivered_at with
                   | Some at -> Json.Float at
                   | None -> Json.Null);
                ])
            r.outcomes));
    ]

(* [Array.of_list (List.map f l)] without the intermediate list; [f]
   runs on the elements in order. *)
let array_of_list f = function
  | [] -> [||]
  | x :: rest as l ->
      let a = Array.make (List.length l) (f x) in
      List.iteri (fun i y -> a.(i + 1) <- f y) rest;
      a

(* Inverse of [report_to_json], for the persistent point store: a report
   written with the strict writer (finite floats in %.17g, integer-valued
   floats as x.0, non-finite as null) reads back bit-identical, so a
   figure rendered from round-tripped reports is byte-identical to one
   rendered from live runs. Raises [Invalid_argument] on any shape
   mismatch — callers treat that as a corrupt cell and recompute. *)
let report_of_json j =
  let open Rapid_obs in
  let get name =
    match Json.member name j with
    | Some v -> v
    | None -> invalid_arg ("Metrics.report_of_json: missing " ^ name)
  in
  let shape name =
    invalid_arg ("Metrics.report_of_json: bad field " ^ name)
  in
  let int name = match get name with Json.Int i -> i | _ -> shape name in
  let float name =
    (* Non-finite values serialize as null (JSON has no nan/inf); the
       only non-finite the metrics layer produces is nan-for-undefined. *)
    match get name with
    | Json.Float f -> f
    | Json.Int i -> float_of_int i
    | Json.Null -> nan
    | _ -> shape name
  in
  let float_v name = function
    | Json.Float f -> f
    | Json.Int i -> float_of_int i
    | Json.Null -> nan
    | _ -> shape name
  in
  let list name = match get name with Json.List l -> l | _ -> shape name in
  let delays = array_of_list (float_v "delays") (list "delays") in
  let pair_delays =
    array_of_list
      (fun item ->
        match
          ( Json.member "src" item,
            Json.member "dst" item,
            Json.member "delays" item )
        with
        | Some (Json.Int src), Some (Json.Int dst), Some (Json.List ds) ->
            ((src, dst), array_of_list (float_v "pair_delays") ds)
        | _ -> shape "pair_delays")
      (list "pair_delays")
  in
  let outcomes =
    array_of_list
      (fun item ->
        match
          ( Json.member "id" item,
            Json.member "created" item,
            Json.member "delivered_at" item )
        with
        | Some (Json.Int id), Some created, Some Json.Null ->
            (id, float_v "outcomes.created" created, None)
        | Some (Json.Int id), Some created, Some at ->
            ( id,
              float_v "outcomes.created" created,
              Some (float_v "outcomes.delivered_at" at) )
        | _ -> shape "outcomes")
      (list "outcomes")
  in
  {
    duration = float "duration";
    created = int "created";
    delivered = int "delivered";
    delivery_rate = float "delivery_rate";
    avg_delay = float "avg_delay";
    avg_delay_all = float "avg_delay_all";
    max_delay = float "max_delay";
    within_deadline = int "within_deadline";
    within_deadline_rate = float "within_deadline_rate";
    data_bytes = int "data_bytes";
    metadata_bytes = int "metadata_bytes";
    capacity_bytes = int "capacity_bytes";
    num_contacts = int "num_contacts";
    utilization = float "utilization";
    metadata_frac_bandwidth = float "metadata_frac_bandwidth";
    metadata_frac_data = float "metadata_frac_data";
    drops = int "drops";
    ack_purges = int "ack_purges";
    transfers = int "transfers";
    delays;
    pair_delays;
    outcomes;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "@[created=%d delivered=%d (%.1f%%) avg_delay=%.1fs max=%.1fs deadline=%.1f%% \
     util=%.3f meta/bw=%.4f meta/data=%.4f drops=%d@]"
    r.created r.delivered (100.0 *. r.delivery_rate) r.avg_delay r.max_delay
    (100.0 *. r.within_deadline_rate)
    r.utilization r.metadata_frac_bandwidth r.metadata_frac_data r.drops
