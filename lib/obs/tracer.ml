type event =
  | Contact of { time : float; a : int; b : int; bytes : int }
  | Metadata of { time : float; a : int; b : int; bytes : int; kind : string }
  | Transfer of {
      time : float;
      sender : int;
      receiver : int;
      packet : int;
      bytes : int;
      delivered : bool;
    }
  | Delivery of { time : float; packet : int; delay : float }
  | Drop of { time : float; node : int; packet : int }
  | Ack_purge of { time : float; node : int; packet : int }
  | Reboot of { time : float; node : int; lost : int }
  | Contact_suppressed of { time : float; a : int; b : int }
  | Contact_truncated of {
      time : float;
      a : int;
      b : int;
      bytes : int;
      effective : int;
    }
  | Metadata_dropped of { time : float; a : int; b : int }
  | Store_hit of { digest : string }
  | Store_miss of { digest : string }
  | Store_write of { digest : string; bytes : int }
  | Store_corrupt of { digest : string; reason : string }

type t = (event -> unit) option

let null = None
let make f = Some f
let enabled t = Option.is_some t
let emit t ev = match t with None -> () | Some f -> f ev

let event_label = function
  | Contact _ -> "contact"
  | Metadata _ -> "metadata"
  | Transfer _ -> "transfer"
  | Delivery _ -> "delivery"
  | Drop _ -> "drop"
  | Ack_purge _ -> "ack_purge"
  | Reboot _ -> "reboot"
  | Contact_suppressed _ -> "contact_suppressed"
  | Contact_truncated _ -> "contact_truncated"
  | Metadata_dropped _ -> "metadata_dropped"
  | Store_hit _ -> "store_hit"
  | Store_miss _ -> "store_miss"
  | Store_write _ -> "store_write"
  | Store_corrupt _ -> "store_corrupt"

let event_to_json ev =
  let fields =
    match ev with
    | Contact { time; a; b; bytes } ->
        [ ("time", Json.Float time); ("a", Json.Int a); ("b", Json.Int b);
          ("bytes", Json.Int bytes) ]
    | Metadata { time; a; b; bytes; kind } ->
        [ ("time", Json.Float time); ("a", Json.Int a); ("b", Json.Int b);
          ("bytes", Json.Int bytes); ("kind", Json.String kind) ]
    | Transfer { time; sender; receiver; packet; bytes; delivered } ->
        [ ("time", Json.Float time); ("sender", Json.Int sender);
          ("receiver", Json.Int receiver); ("packet", Json.Int packet);
          ("bytes", Json.Int bytes); ("delivered", Json.Bool delivered) ]
    | Delivery { time; packet; delay } ->
        [ ("time", Json.Float time); ("packet", Json.Int packet);
          ("delay", Json.Float delay) ]
    | Drop { time; node; packet } ->
        [ ("time", Json.Float time); ("node", Json.Int node);
          ("packet", Json.Int packet) ]
    | Ack_purge { time; node; packet } ->
        [ ("time", Json.Float time); ("node", Json.Int node);
          ("packet", Json.Int packet) ]
    | Reboot { time; node; lost } ->
        [ ("time", Json.Float time); ("node", Json.Int node);
          ("lost", Json.Int lost) ]
    | Contact_suppressed { time; a; b } ->
        [ ("time", Json.Float time); ("a", Json.Int a); ("b", Json.Int b) ]
    | Contact_truncated { time; a; b; bytes; effective } ->
        [ ("time", Json.Float time); ("a", Json.Int a); ("b", Json.Int b);
          ("bytes", Json.Int bytes); ("effective", Json.Int effective) ]
    | Metadata_dropped { time; a; b } ->
        [ ("time", Json.Float time); ("a", Json.Int a); ("b", Json.Int b) ]
    | Store_hit { digest } | Store_miss { digest } ->
        [ ("digest", Json.String digest) ]
    | Store_write { digest; bytes } ->
        [ ("digest", Json.String digest); ("bytes", Json.Int bytes) ]
    | Store_corrupt { digest; reason } ->
        [ ("digest", Json.String digest); ("reason", Json.String reason) ]
  in
  Json.Obj (("event", Json.String (event_label ev)) :: fields)

module Collector = struct
  type t = {
    counts : (string, int ref) Hashtbl.t;
    mutable events : event list;  (* newest first, bounded *)
    mutable kept : int;
    keep_events : int;
    mutable total : int;
  }

  let create ?(keep_events = 0) () =
    { counts = Hashtbl.create 8; events = []; kept = 0; keep_events; total = 0 }

  let record c ev =
    c.total <- c.total + 1;
    let label = event_label ev in
    (match Hashtbl.find_opt c.counts label with
    | Some r -> Stdlib.incr r
    | None -> Hashtbl.replace c.counts label (ref 1));
    if c.kept < c.keep_events then begin
      c.events <- ev :: c.events;
      c.kept <- c.kept + 1
    end

  let tracer c = make (record c)

  let counts c =
    Hashtbl.fold (fun label r acc -> (label, !r) :: acc) c.counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let events c = List.rev c.events
  let total c = c.total

  let to_json c =
    Json.Obj
      [
        ("total", Json.Int c.total);
        ("counts",
         Json.Obj (List.map (fun (l, n) -> (l, Json.Int n)) (counts c)));
        ("events", Json.List (List.map event_to_json (events c)));
      ]
end

module Jsonl = struct
  (* Each line is rendered into one buffer reused for the life of the
     sink, so an event costs its JSON tree but no string of its own. *)
  let tracer oc =
    let buf = Buffer.create 256 in
    make (fun ev ->
        Buffer.clear buf;
        Json.to_buffer buf (event_to_json ev);
        Buffer.add_char buf '\n';
        Buffer.output_buffer oc buf)
end
