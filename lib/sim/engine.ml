open Rapid_trace
module Tracer = Rapid_obs.Tracer
module Faults = Rapid_faults.Faults

type options = {
  buffer_bytes : int option;
  meta_cap_frac : float option;
  seed : int;
  faults : Faults.config;
}

let default_options =
  { buffer_bytes = None; meta_cap_frac = None; seed = 1; faults = Faults.none }

(* Make room at [node] for [incoming] by evicting protocol-chosen victims.
   Returns true when the incoming packet now fits. A drop_candidate answer
   of [None] or of the incoming packet itself refuses it. *)
let make_room (type s) (module P : Protocol.S with type t = s) (st : s)
    (env : Env.t) metrics tracer ~now ~node ~(incoming : Packet.t) =
  let buffer = env.Env.buffers.(node) in
  (* A packet larger than the whole buffer can never fit: refuse it up
     front instead of letting the protocol drain every incumbent first
     and refusing anyway. *)
  match Buffer.capacity buffer with
  | Some cap when incoming.Packet.size > cap -> false
  | _ ->
  let rec loop () =
    if Buffer.would_fit buffer incoming.Packet.size then true
    else begin
      match P.drop_candidate st ~now ~node ~incoming with
      | None -> false
      | Some victim when victim.Packet.id = incoming.Packet.id -> false
      | Some victim -> (
          match Buffer.remove buffer victim.Packet.id with
          | None ->
              invalid_arg
                (Printf.sprintf "protocol %s: drop candidate %d not buffered"
                   P.name victim.Packet.id)
          | Some _ ->
              Metrics.record_drop metrics;
              if Tracer.enabled tracer then
                Tracer.emit tracer
                  (Tracer.Drop { time = now; node; packet = victim.Packet.id });
              P.on_dropped st ~now ~node victim;
              loop ())
    end
  in
  loop ()

let run_contact (type s) (module P : Protocol.S with type t = s) (st : s)
    (env : Env.t) metrics tracer ~meta_cap_frac ~effective ~meta_ok ~num_packets
    ~seen (c : Contact.t) =
  let now = c.Contact.time in
  Metrics.record_contact metrics ~capacity:effective;
  if Tracer.enabled tracer then
    Tracer.emit tracer
      (Tracer.Contact
         { time = now; a = c.Contact.a; b = c.Contact.b; bytes = c.Contact.bytes });
  if effective < c.Contact.bytes then begin
    Faults.note_contact_truncated ~lost_bytes:(c.Contact.bytes - effective);
    if Tracer.enabled tracer then
      Tracer.emit tracer
        (Tracer.Contact_truncated
           { time = now; a = c.Contact.a; b = c.Contact.b;
             bytes = c.Contact.bytes; effective })
  end;
  if not meta_ok then begin
    Faults.note_meta_drop ();
    if Tracer.enabled tracer then
      Tracer.emit tracer
        (Tracer.Metadata_dropped { time = now; a = c.Contact.a; b = c.Contact.b })
  end;
  (* The protocol is told the recorded opportunity size: a truncation cuts
     the contact short mid-transfer, which nobody can foresee. *)
  let meta_budget =
    Option.map
      (fun f -> int_of_float (f *. float_of_int c.Contact.bytes))
      meta_cap_frac
  in
  let meta =
    P.on_contact st
      {
        Protocol.now;
        a = c.Contact.a;
        b = c.Contact.b;
        budget = c.Contact.bytes;
        meta_budget;
        meta_ok;
      }
  in
  let cap = match meta_budget with Some m -> min m c.Contact.bytes | None -> c.Contact.bytes in
  let meta = max 0 (min meta cap) in
  (* A lost metadata exchange transfers nothing, whatever the protocol
     thinks it spent; a truncated contact bounds meta like data. *)
  let meta = if meta_ok then min meta effective else 0 in
  Metrics.record_metadata metrics ~bytes:meta;
  if Tracer.enabled tracer then
    Tracer.emit tracer
      (Tracer.Metadata
         { time = now; a = c.Contact.a; b = c.Contact.b; bytes = meta;
           kind = "total" });
  let budget = ref (effective - meta) in
  (* Alternate directions; guard against protocols re-offering a packet. *)
  let dirs = [| (c.Contact.a, c.Contact.b); (c.Contact.b, c.Contact.a) |] in
  let active = [| true; true |] in
  (* Flat (sender, packet id) key: packet ids are dense in
     [0, num_packets), so no tuple boxing on the per-transfer guard. The
     table itself is run-lifetime scratch owned by [run] — cleared (not
     reallocated) here so its bucket array is reused contact after
     contact. *)
  Hashtbl.clear seen;
  let seen_key sender id = (sender * max 1 num_packets) + id in
  let turn = ref 0 in
  let record_transfer ~sender ~receiver (p : Packet.t) ~delivered =
    Metrics.record_transfer metrics ~bytes:p.Packet.size;
    if Tracer.enabled tracer then
      Tracer.emit tracer
        (Tracer.Transfer
           { time = now; sender; receiver; packet = p.Packet.id;
             bytes = p.Packet.size; delivered })
  in
  while !budget > 0 && (active.(0) || active.(1)) do
    if not active.(!turn) then turn := 1 - !turn
    else begin
      let sender, receiver = dirs.(!turn) in
      match P.next_packet st ~now ~sender ~receiver ~budget:!budget with
      | None -> active.(!turn) <- false
      | Some p ->
          let id = p.Packet.id in
          if p.Packet.size > !budget then
            invalid_arg
              (Printf.sprintf "protocol %s: packet %d exceeds budget" P.name id);
          if not (Buffer.mem env.Env.buffers.(sender) id) then
            invalid_arg
              (Printf.sprintf "protocol %s: offered unbuffered packet %d" P.name id);
          if Hashtbl.mem seen (seen_key sender id) then
            invalid_arg
              (Printf.sprintf "protocol %s: packet %d offered twice" P.name id);
          Hashtbl.replace seen (seen_key sender id) ();
          if receiver = p.Packet.dst then begin
            (* Delivery: destination storage is unconstrained (§3.1), and
               the sender drops its copy — it has first-hand knowledge the
               packet is delivered. *)
            budget := !budget - p.Packet.size;
            record_transfer ~sender ~receiver p ~delivered:true;
            if not (Env.is_delivered env id) then begin
              Hashtbl.replace env.Env.delivered id now;
              if Tracer.enabled tracer then
                Tracer.emit tracer
                  (Tracer.Delivery
                     { time = now; packet = id;
                       delay = now -. p.Packet.created })
            end;
            Metrics.record_delivered metrics p ~now;
            ignore (Buffer.remove env.Env.buffers.(sender) id);
            P.on_transfer st ~now ~sender ~receiver p ~delivered:true
          end
          else if Env.has_packet env ~node:receiver ~packet:p then begin
            (* Duplicate push: a protocol that does not exchange summary
               vectors (the Random baseline) wastes the bandwidth; the
               receiver discards the copy. *)
            budget := !budget - p.Packet.size;
            record_transfer ~sender ~receiver p ~delivered:false
          end
          else begin
            if
              make_room (module P) st env metrics tracer ~now ~node:receiver
                ~incoming:p
            then begin
              let hops =
                match Buffer.find env.Env.buffers.(sender) id with
                | Some e -> e.Buffer.hops + 1
                | None -> 1
              in
              Buffer.add env.Env.buffers.(receiver)
                { Buffer.packet = p; received = now; hops };
              budget := !budget - p.Packet.size;
              record_transfer ~sender ~receiver p ~delivered:false;
              P.on_transfer st ~now ~sender ~receiver p ~delivered:false
            end
            (* else: receiver refused (storage); no bandwidth consumed. The
               protocol must not offer this packet again in this contact. *)
          end;
          turn := 1 - !turn
    end
  done

type result = { report : Metrics.report; env : Env.t }

let run ?(options = default_options) ?(tracer = Tracer.null) ~protocol
    ~trace ~workload () =
  let (module P : Protocol.S) = protocol in
  let env =
    Env.create ~num_nodes:trace.Trace.num_nodes ~duration:trace.Trace.duration
      ~buffer_capacity:options.buffer_bytes ~seed:options.seed
  in
  let metrics = Metrics.create ~duration:trace.Trace.duration in
  (* Ack-driven purges happen inside protocol callbacks; the env hook is
     the single accounting path back into the run's metrics. *)
  env.Env.on_ack_purge <-
    (fun ~now ~node p ->
      Metrics.record_ack_purge metrics;
      if Tracer.enabled tracer then
        Tracer.emit tracer
          (Tracer.Ack_purge { time = now; node; packet = p.Packet.id }));
  let st = P.create env in
  let plan = Faults.plan options.faults ~run_seed:options.seed ~trace in
  let reboot ~now ~node =
    (* Wipe the buffer first, then tell the protocol: on_reboot sees the
       post-crash world. Lost copies are not storage drops — no drop
       metrics — the faults.* counters account for them. *)
    (* [clear] empties in one sweep; the slot-order [lost] list is fine
       because on_reboot implementations treat it as a set. *)
    let lost = Buffer.clear env.Env.buffers.(node) in
    Faults.note_reboot ~lost:(List.length lost);
    if Tracer.enabled tracer then
      Tracer.emit tracer
        (Tracer.Reboot { time = now; node; lost = List.length lost });
    P.on_reboot st ~now ~node ~lost
  in
  let create_packet ~id (spec : Workload.spec) =
    let p = Packet.of_spec ~id spec in
    Metrics.record_created metrics p;
    let now = p.Packet.created in
    if
      make_room (module P) st env metrics tracer ~now ~node:p.Packet.src
        ~incoming:p
    then begin
      Buffer.add env.Env.buffers.(p.Packet.src)
        { Buffer.packet = p; received = now; hops = 0 };
      P.on_created st ~now p
    end
    else begin
      Metrics.record_drop metrics;
      if Tracer.enabled tracer then
        Tracer.emit tracer
          (Tracer.Drop { time = now; node = p.Packet.src; packet = p.Packet.id })
    end
  in
  (* Merge creations and contacts in time order (creations first on ties,
     so a packet created "at" a meeting can ride it). Scheduled reboots
     interleave via a third cursor and fire before any same-time event —
     a node that crashes "at" a meeting misses it with empty buffers. *)
  let contacts = trace.Trace.contacts in
  let specs = Array.of_list workload in
  (* The merge below, and protocols that rely on a fresh packet being the
     newest anywhere (RAPID's O(1) queue position), need creation times
     that never decrease; an out-of-order spec would be created after
     contacts that should have carried it. *)
  Array.iteri
    (fun i (s : Workload.spec) ->
      let created = s.Workload.created in
      if not (Float.is_finite created) then
        invalid_arg
          (Printf.sprintf "Engine.run: workload spec %d has non-finite created %g"
             i created);
      if i > 0 && created < specs.(i - 1).Workload.created then
        invalid_arg
          (Printf.sprintf
             "Engine.run: workload spec %d created at %g, before spec %d at %g"
             i created (i - 1) specs.(i - 1).Workload.created))
    specs;
  let reboots = Faults.reboots plan in
  (* Run-lifetime duplicate-offer guard, cleared per contact inside
     run_contact instead of allocated fresh for each of them. *)
  let seen = Hashtbl.create 16 in
  let nc = Array.length contacts
  and ns = Array.length specs
  and nr = Array.length reboots in
  let ci = ref 0 and si = ref 0 and ri = ref 0 in
  let process_reboots_until limit =
    while !ri < nr && fst reboots.(!ri) <= limit do
      let time, node = reboots.(!ri) in
      reboot ~now:time ~node;
      incr ri
    done
  in
  while !ci < nc || !si < ns do
    let take_spec =
      if !si >= ns then false
      else if !ci >= nc then true
      else specs.(!si).Workload.created <= contacts.(!ci).Contact.time
    in
    if take_spec then begin
      process_reboots_until specs.(!si).Workload.created;
      create_packet ~id:!si specs.(!si);
      incr si
    end
    else begin
      let c = contacts.(!ci) in
      process_reboots_until c.Contact.time;
      if Faults.contact_skipped plan !ci then begin
        Faults.note_contact_suppressed ();
        if Tracer.enabled tracer then
          Tracer.emit tracer
            (Tracer.Contact_suppressed
               { time = c.Contact.time; a = c.Contact.a; b = c.Contact.b })
      end
      else
        run_contact (module P) st env metrics tracer
          ~meta_cap_frac:options.meta_cap_frac
          ~effective:(Faults.contact_capacity plan !ci ~bytes:c.Contact.bytes)
          ~meta_ok:(Faults.contact_meta_ok plan !ci)
          ~num_packets:ns ~seen c;
      incr ci
    end
  done;
  process_reboots_until infinity;
  { report = Metrics.report metrics; env }
