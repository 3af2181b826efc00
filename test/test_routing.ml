(* Tests for Rapid_routing: protocol-specific behaviours (spray tokens,
   prophet predictability gating, maxprop priorities, ack purging) and the
   Optimal evaluator against brute force. *)

open Rapid_trace
open Rapid_sim
open Rapid_routing

let check_close ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" what expected actual

let spec ~src ~dst ?(size = 10) ?(created = 0.0) ?deadline () =
  { Workload.src; dst; size; created; deadline }

(* ------------------------------------------------------------------ *)
(* Slot-order independence: buffers are walked in slot order, which
   depends on the add/remove history. Two histories reaching the same
   contents must yield the same victims, ack-purge order and plans. *)

(* Node 0's contents as (id, src, dst, size, created, hops): ids 2 and 5
   tie on MaxProp's (hops, cost); ids 1 and 6 are destined to node 1. *)
let slot_packets =
  [
    (0, 0, 2, 10, 0.0, 0); (1, 0, 1, 20, 1.0, 0); (2, 3, 2, 10, 2.0, 3);
    (3, 0, 3, 30, 3.0, 1); (4, 2, 3, 10, 4.0, 2); (5, 3, 2, 10, 5.0, 3);
    (6, 0, 1, 10, 6.0, 0); (7, 2, 4, 15, 7.0, 1); (8, 0, 4, 10, 8.0, 0);
    (9, 1, 4, 10, 8.5, 1);
  ]

let slot_entry id =
  let _, src, dst, size, created, hops =
    List.find (fun (i, _, _, _, _, _) -> i = id) slot_packets
  in
  {
    Buffer.packet = Packet.of_spec ~id (spec ~src ~dst ~size ~created ());
    received = created;
    hops;
  }

(* Node 0 ends up holding ids 0..8 either way; node 1 holds id 4. *)
let slot_env history =
  let env =
    Env.create ~num_nodes:5 ~duration:100.0 ~buffer_capacity:None ~seed:3
  in
  List.iter
    (fun id ->
      if id >= 0 then Buffer.add env.Env.buffers.(0) (slot_entry id)
      else ignore (Buffer.remove env.Env.buffers.(0) (-id - 1)))
    history;
  Buffer.add env.Env.buffers.(1) (slot_entry 4);
  env

let ascending = List.init 9 Fun.id

(* [-k - 1] removes id k. *)
let scrambled = [ 8; 2; 9; 5; 0; 7; 3; 1; 6; 4; -10; -3; 2 ]

let slot_order env =
  Buffer.fold_unordered env.Env.buffers.(0) ~init:[]
    ~f:(fun acc (e : Buffer.entry) -> e.Buffer.packet.Packet.id :: acc)

let slot_trace =
  Trace.create ~num_nodes:5 ~duration:100.0
    [
      Contact.make ~time:10.0 ~a:0 ~b:1 ~bytes:100;
      Contact.make ~time:20.0 ~a:1 ~b:2 ~bytes:100;
      Contact.make ~time:30.0 ~a:0 ~b:3 ~bytes:100;
    ]

(* Both plans of a 0-1 meeting at t=10, drained without transfers, then
   node 0's eviction victim for a foreign newcomer. *)
let slot_outcome (protocol : Protocol.packed) env =
  let (module P) = protocol in
  let st = P.create env in
  List.iter
    (fun id ->
      let p = (slot_entry id).Buffer.packet in
      if p.Packet.src = 0 then P.on_created st ~now:p.Packet.created p)
    ascending;
  ignore
    (P.on_contact st
       { Protocol.now = 10.0; a = 0; b = 1; budget = 1000; meta_budget = None;
         meta_ok = true });
  let drain sender receiver =
    let rec go acc =
      match P.next_packet st ~now:10.0 ~sender ~receiver ~budget:1000 with
      | None -> List.rev acc
      | Some p -> go (p.Packet.id :: acc)
    in
    go []
  in
  let ab = drain 0 1 in
  let ba = drain 1 0 in
  let incoming = Packet.of_spec ~id:20 (spec ~src:3 ~dst:4 ()) in
  let victim =
    Option.map
      (fun (p : Packet.t) -> p.Packet.id)
      (P.drop_candidate st ~now:10.0 ~node:0 ~incoming)
  in
  (ab, ba, victim)

let test_slot_order_independence () =
  let a = slot_env ascending and b = slot_env scrambled in
  Alcotest.(check (list int)) "same contents"
    (List.sort Int.compare (slot_order a))
    (List.sort Int.compare (slot_order b));
  Alcotest.(check bool) "different slot orders" true
    (slot_order a <> slot_order b);
  let protocols =
    [
      ("maxprop", (fun () -> Maxprop.make ()), Some 2);
      ("prophet", (fun () -> Prophet.make ()), Some 0);
      ("oracle", (fun () -> Oracle_forwarding.make ~trace:slot_trace ()), Some 7);
      ("epidemic", (fun () -> Epidemic.make ()), None);
      ("direct", (fun () -> Direct.make ()), None);
      ("spraywait", (fun () -> Spray_wait.make ()), None);
      ("random", (fun () -> Random_protocol.make ()), None);
      ( "random sv",
        (fun () -> Random_protocol.make ~summary_vector:true ()),
        None );
      ( "rapid",
        (fun () -> Rapid_core.Rapid.make_default Rapid_core.Metric.Average_delay),
        None );
    ]
  in
  List.iter
    (fun (name, make, want_victim) ->
      let ab, ba, victim = slot_outcome (make ()) (slot_env ascending) in
      let ab', ba', victim' = slot_outcome (make ()) (slot_env scrambled) in
      Alcotest.(check (list int)) (name ^ " plan 0->1") ab ab';
      Alcotest.(check (list int)) (name ^ " plan 1->0") ba ba';
      Alcotest.(check (option int)) (name ^ " victim") victim victim';
      match want_victim with
      | Some v -> Alcotest.(check (option int)) (name ^ " tie to lowest id") (Some v) victim
      | None -> ())
    protocols;
  let purge_order env =
    let acks = Protocol.Ack_store.create ~num_nodes:5 in
    List.iter
      (fun id -> Protocol.Ack_store.learn acks ~node:0 ~packet_id:id)
      [ 5; 1; 8; 3 ];
    let hooked = ref [] and called = ref [] in
    env.Env.on_ack_purge <-
      (fun ~now:_ ~node:_ p -> hooked := p.Packet.id :: !hooked);
    Protocol.Ack_store.purge acks env ~now:1.0 ~node:0 ~on_purge:(fun p ->
        called := p.Packet.id :: !called);
    (List.rev !hooked, List.rev !called)
  in
  let hooked, called = purge_order (slot_env ascending) in
  let hooked', called' = purge_order (slot_env scrambled) in
  Alcotest.(check (list int)) "ack purge, descending id" [ 8; 5; 3; 1 ] called;
  Alcotest.(check (list int)) "env hook in callback order" called hooked;
  Alcotest.(check (list int)) "same purge order" called called';
  Alcotest.(check (list int)) "same hook order" hooked hooked'

(* ------------------------------------------------------------------ *)
(* Spray and Wait *)

let test_spray_wait_limits_copies () =
  (* Star: source 0 meets relays 1..8 in sequence; dst 9 never appears.
     Binary spraying with L=4: the source gives 2 tokens to the first
     relay and 1 to the second, then holds a single token and waits — so
     exactly 2 transfers and 3 physical copies. *)
  let contacts =
    List.init 8 (fun i ->
        Contact.make ~time:(float_of_int (i + 1)) ~a:0 ~b:(i + 1) ~bytes:100)
  in
  let trace = Trace.create ~num_nodes:10 ~duration:20.0 contacts in
  let workload = [ spec ~src:0 ~dst:9 () ] in
  let { Engine.report; env } =
    Engine.run ~protocol:(Spray_wait.make ~l:4 ()) ~trace ~workload ()
  in
  let holders =
    Array.fold_left
      (fun acc b -> if Buffer.mem b 0 then acc + 1 else acc)
      0 env.Env.buffers
  in
  Alcotest.(check int) "copies limited by L" 2 report.Metrics.transfers;
  Alcotest.(check int) "holders = 3 (src + 2)" 3 holders

let test_spray_wait_single_copy_waits () =
  (* L=1: pure direct delivery; relay never gets the packet. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        Contact.make ~time:2.0 ~a:1 ~b:2 ~bytes:100;
      ]
  in
  let workload = [ spec ~src:0 ~dst:2 () ] in
  let report =
    (Engine.run ~protocol:(Spray_wait.make ~l:1 ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "no relay, no delivery" 0 report.Metrics.delivered

let test_spray_wait_direct_delivery_always () =
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100 ]
  in
  let workload = [ spec ~src:0 ~dst:1 () ] in
  let report =
    (Engine.run ~protocol:(Spray_wait.make ~l:1 ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "direct delivered" 1 report.Metrics.delivered

(* ------------------------------------------------------------------ *)
(* PROPHET *)

let test_prophet_requires_predictability () =
  (* Node 1 has never met dst 2 when it first meets 0, so no replication;
     after 1 meets 2 (raising P(1,2)), a later meeting with 0 replicates. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:100.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        (* no transfer expected: P(1,2)=0 = P(0,2) *)
        Contact.make ~time:2.0 ~a:1 ~b:2 ~bytes:0;
        (* 1 meets dst (zero-byte contact still updates predictability) *)
        Contact.make ~time:3.0 ~a:0 ~b:1 ~bytes:100;
        (* now P(1,2) > P(0,2): replicate *)
        Contact.make ~time:4.0 ~a:1 ~b:2 ~bytes:100;
      ]
  in
  let workload = [ spec ~src:0 ~dst:2 () ] in
  let report = (Engine.run ~protocol:(Prophet.make ()) ~trace ~workload ()).Engine.report in
  Alcotest.(check int) "delivered via predictable relay" 1 report.Metrics.delivered;
  check_close "delay" 4.0 report.Metrics.avg_delay

let test_prophet_aging () =
  (* Verify that gamma-aging decays predictability: same scenario but with a
     huge gap before the second 0-1 meeting; P(1,2) decays to ~0 and the
     relay is no better than the source, so no replication happens. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:1e7
      [
        Contact.make ~time:1.0 ~a:1 ~b:2 ~bytes:0;
        Contact.make ~time:9e6 ~a:0 ~b:1 ~bytes:100;
      ]
  in
  let workload = [ spec ~src:0 ~dst:2 () ] in
  let report =
    (Engine.run ~protocol:(Prophet.make ~time_unit:30.0 ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "no transfer after decay" 0 report.Metrics.transfers

let test_prophet_encounter_update_symmetric () =
  (* The transitivity pass must read predictability snapshots taken at the
     start of the encounter: with in-place updates the (a, b) loop could
     feed its own freshly-raised entries back into the (b, a) half, making
     the result depend on argument order. Swapping a and b must be a
     no-op. *)
  let n = 5 in
  let mk () =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then 0.0
            else float_of_int (((i * 7) + (j * 3)) mod 10) /. 12.5))
  in
  let check ~p_init ~beta a b =
    let p1 = mk () and p2 = mk () in
    Prophet.encounter_update ~p_init ~beta p1 a b;
    Prophet.encounter_update ~p_init ~beta p2 b a;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        check_close
          (Printf.sprintf "beta=%g p.(%d).(%d)" beta i j)
          p1.(i).(j) p2.(i).(j)
      done
    done
  in
  check ~p_init:0.75 ~beta:0.25 1 3;
  (* beta > 1 is out of PROPHET's range but maximally exposes the
     in-place feedback: with live rows the two argument orders disagree
     here, with snapshots they cannot. *)
  check ~p_init:0.9 ~beta:1.25 1 3;
  check ~p_init:0.9 ~beta:1.25 0 4

(* ------------------------------------------------------------------ *)
(* MaxProp *)

let test_maxprop_acks_purge () =
  (* After delivery, the ack must reach the other carrier and purge its
     stale copy. *)
  let trace =
    Trace.create ~num_nodes:4 ~duration:20.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1000;
        (* replicate to 1 *)
        Contact.make ~time:2.0 ~a:0 ~b:3 ~bytes:1000;
        (* source delivers to dst 3 *)
        Contact.make ~time:3.0 ~a:0 ~b:1 ~bytes:1000;
        (* ack flows 0 -> 1; 1 purges *)
      ]
  in
  let workload = [ spec ~src:0 ~dst:3 () ] in
  let { Engine.report; env } =
    Engine.run ~protocol:(Maxprop.make ()) ~trace ~workload ()
  in
  Alcotest.(check int) "delivered" 1 report.Metrics.delivered;
  Alcotest.(check bool) "stale copy purged" false (Buffer.mem env.Env.buffers.(1) 0);
  Alcotest.(check bool) "ack purge recorded" true (report.Metrics.ack_purges >= 1)

let test_maxprop_delivers_chain () =
  let trace =
    Trace.create ~num_nodes:4 ~duration:20.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1000;
        Contact.make ~time:2.0 ~a:1 ~b:2 ~bytes:1000;
        Contact.make ~time:3.0 ~a:2 ~b:3 ~bytes:1000;
      ]
  in
  let workload = [ spec ~src:0 ~dst:3 () ] in
  let report = (Engine.run ~protocol:(Maxprop.make ()) ~trace ~workload ()).Engine.report in
  Alcotest.(check int) "delivered over 3 hops" 1 report.Metrics.delivered

let test_maxprop_metadata_charged () =
  let trace =
    Trace.create ~num_nodes:3 ~duration:20.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1000 ]
  in
  let report =
    (Engine.run ~protocol:(Maxprop.make ()) ~trace ~workload:[] ()).Engine.report
  in
  Alcotest.(check bool) "vectors cost bytes" true (report.Metrics.metadata_bytes > 0)

let test_maxprop_no_acks_without_delivery () =
  (* Acks exist only for delivered packets: a replication-only run must
     never purge, even across repeated meetings of the carriers. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:20.0
      ~active:[ 0; 1; 2 ]
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1000;
        Contact.make ~time:2.0 ~a:0 ~b:1 ~bytes:1000;
      ]
  in
  let workload = [ spec ~src:0 ~dst:2 () ] in
  let { Engine.report; env } =
    Engine.run ~protocol:(Maxprop.make ()) ~trace ~workload ()
  in
  Alcotest.(check int) "nothing delivered" 0 report.Metrics.delivered;
  Alcotest.(check int) "no ack purges" 0 report.Metrics.ack_purges;
  Alcotest.(check bool) "source keeps copy" true (Buffer.mem env.Env.buffers.(0) 0);
  Alcotest.(check bool) "relay keeps copy" true (Buffer.mem env.Env.buffers.(1) 0)

(* ------------------------------------------------------------------ *)
(* Spray tickets across duplicate meetings *)

let test_spray_wait_duplicate_meeting_keeps_tokens () =
  (* Ticket halving happens only when a copy is actually accepted. Meeting
     the same relay twice must not burn tokens: after the duplicate
     meeting the source still holds 2 tokens and sprays the next relay. *)
  let trace =
    Trace.create ~num_nodes:10 ~duration:20.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        (* L=4: give 2, keep 2 *)
        Contact.make ~time:2.0 ~a:0 ~b:1 ~bytes:100;
        (* relay already holds it: no transfer, no halving *)
        Contact.make ~time:3.0 ~a:0 ~b:2 ~bytes:100;
        (* still 2 tokens: give 1, keep 1 *)
        Contact.make ~time:4.0 ~a:0 ~b:3 ~bytes:100;
        (* 1 token left: wait phase, no spray *)
      ]
  in
  let workload = [ spec ~src:0 ~dst:9 () ] in
  let { Engine.report; env } =
    Engine.run ~protocol:(Spray_wait.make ~l:4 ()) ~trace ~workload ()
  in
  Alcotest.(check int) "two sprays" 2 report.Metrics.transfers;
  Alcotest.(check bool) "second relay got a copy" true
    (Buffer.mem env.Env.buffers.(2) 0);
  Alcotest.(check bool) "wait phase holds" false (Buffer.mem env.Env.buffers.(3) 0)

(* ------------------------------------------------------------------ *)
(* Random with acks vs without *)

let test_random_acks_reduce_waste () =
  (* Under storage pressure, purging delivered copies frees buffer space;
     opportunities are large enough that ack bytes are a minor cost. *)
  let rng = Rapid_prelude.Rng.create 5 in
  let trace =
    Rapid_mobility.Mobility.exponential rng ~num_nodes:8 ~mean_inter_meeting:20.0
      ~duration:600.0 ~opportunity_bytes:400
  in
  let workload =
    Workload.generate rng ~trace ~pkts_per_hour_per_dest:240.0 ~size:10 ()
  in
  let run protocol =
    (Engine.run
      ~options:{ Engine.default_options with buffer_bytes = Some 100; seed = 1 }
      ~protocol ~trace ~workload ()).Engine.report
  in
  let plain = run (Random_protocol.make ()) in
  let acked = run (Random_protocol.make ~with_acks:true ()) in
  Alcotest.(check bool) "acks purge something" true (acked.Metrics.ack_purges > 0);
  Alcotest.(check bool) "acks never hurt delivery badly" true
    (acked.Metrics.delivered * 10 >= plain.Metrics.delivered * 9)

(* ------------------------------------------------------------------ *)
(* Oracle forwarding *)

let test_oracle_forwards_single_copy () =
  (* Chain 0-1-2-3; the oracle must forward along it, keeping one copy. *)
  let trace =
    Trace.create ~num_nodes:4 ~duration:20.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        Contact.make ~time:2.0 ~a:1 ~b:2 ~bytes:100;
        Contact.make ~time:3.0 ~a:2 ~b:3 ~bytes:100;
      ]
  in
  let workload = [ spec ~src:0 ~dst:3 () ] in
  let { Engine.report; env } =
    Engine.run
      ~protocol:(Oracle_forwarding.make ~trace ())
      ~trace ~workload ()
  in
  Alcotest.(check int) "delivered" 1 report.Metrics.delivered;
  check_close "delay" 3.0 report.Metrics.avg_delay;
  (* Single copy: no node still holds it after delivery. *)
  Array.iter
    (fun b -> if Buffer.mem b 0 then Alcotest.fail "stray copy left behind")
    env.Env.buffers

let test_oracle_refuses_dead_end () =
  (* Node 1 never reaches dst 3 later; the oracle must not forward to it. *)
  let trace =
    Trace.create ~num_nodes:4 ~duration:20.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        (* dead end: 1 meets nobody afterwards *)
        Contact.make ~time:5.0 ~a:0 ~b:3 ~bytes:100;
        (* source delivers directly later *)
      ]
  in
  let workload = [ spec ~src:0 ~dst:3 () ] in
  let report =
    (Engine.run ~protocol:(Oracle_forwarding.make ~trace ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "delivered directly" 1 report.Metrics.delivered;
  check_close "kept for the direct contact" 5.0 report.Metrics.avg_delay;
  Alcotest.(check int) "exactly one transfer" 1 report.Metrics.transfers

let test_oracle_no_future_no_forward () =
  (* No path to the destination at all: the packet never moves. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100 ]
  in
  let workload = [ spec ~src:0 ~dst:2 () ] in
  let report =
    (Engine.run ~protocol:(Oracle_forwarding.make ~trace ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "no transfers" 0 report.Metrics.transfers

(* ------------------------------------------------------------------ *)
(* Optimal *)

let test_contention_free_simple () =
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:10;
        Contact.make ~time:2.0 ~a:1 ~b:2 ~bytes:10;
      ]
  in
  let workload = [ spec ~src:0 ~dst:2 ~size:10 () ] in
  let v = Optimal.contention_free ~trace ~workload in
  Alcotest.(check int) "delivered" 1 v.Optimal.delivered;
  check_close "delay" 2.0 v.Optimal.avg_delay_all

let test_contention_free_size_limit () =
  (* Packet bigger than any opportunity cannot move. *)
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:5 ]
  in
  let workload = [ spec ~src:0 ~dst:1 ~size:10 () ] in
  let v = Optimal.contention_free ~trace ~workload in
  Alcotest.(check int) "undeliverable" 0 v.Optimal.delivered;
  check_close "penalty" 10.0 v.Optimal.avg_delay_all

let test_ilp_contention () =
  (* One unit opportunity, two unit packets to the same dst: only one can
     cross; the ILP must pick exactly one and charge the other the horizon. *)
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:2.0 ~a:0 ~b:1 ~bytes:1 ]
  in
  let workload =
    [ spec ~src:0 ~dst:1 ~size:1 (); spec ~src:0 ~dst:1 ~size:1 () ]
  in
  let v = Optimal.evaluate ~trace ~workload () in
  Alcotest.(check int) "one delivered" 1 v.Optimal.delivered;
  (* delays: delivered 2.0, undelivered 10.0 => avg 6.0 *)
  check_close "avg" 6.0 v.Optimal.avg_delay_all;
  (match v.Optimal.how with
  | Optimal.Ilp_exact -> ()
  | Optimal.Ilp_incumbent | Optimal.Bound -> Alcotest.fail "expected exact ILP")

let test_ilp_prefers_two_late_over_one_early () =
  (* Min total delay: delivering both packets late (t=5, delays 5+5=10) beats
     one early (t=1, delay 1) + one undelivered (10): 10 < 11. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:2 ~bytes:1;
        Contact.make ~time:5.0 ~a:0 ~b:2 ~bytes:1;
        Contact.make ~time:5.5 ~a:0 ~b:2 ~bytes:1;
      ]
  in
  let workload =
    [ spec ~src:0 ~dst:2 ~size:1 (); spec ~src:0 ~dst:2 ~size:1 () ]
  in
  let v = Optimal.evaluate ~trace ~workload () in
  Alcotest.(check int) "both delivered" 2 v.Optimal.delivered

let test_ilp_multi_hop_with_contention () =
  (* Two packets, relay chain with a shared bottleneck link of size 1. *)
  let trace =
    Trace.create ~num_nodes:4 ~duration:20.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:2;
        Contact.make ~time:2.0 ~a:1 ~b:3 ~bytes:1;
        (* bottleneck *)
        Contact.make ~time:5.0 ~a:0 ~b:3 ~bytes:1;
        (* direct fallback for the other *)
      ]
  in
  let workload =
    [ spec ~src:0 ~dst:3 ~size:1 (); spec ~src:0 ~dst:3 ~size:1 () ]
  in
  let v = Optimal.evaluate ~trace ~workload () in
  Alcotest.(check int) "both delivered" 2 v.Optimal.delivered;
  (* One at t=2 via relay, one at t=5 direct: avg 3.5. *)
  check_close "avg delay" 3.5 v.Optimal.avg_delay_all

let test_ilp_fallback_on_big_instance () =
  let rng = Rapid_prelude.Rng.create 1 in
  let trace =
    Rapid_mobility.Mobility.exponential rng ~num_nodes:10 ~mean_inter_meeting:5.0
      ~duration:500.0 ~opportunity_bytes:10
  in
  let workload =
    Workload.generate rng ~trace ~pkts_per_hour_per_dest:200.0 ~size:1 ()
  in
  let v = Optimal.evaluate ~max_vars:50 ~trace ~workload () in
  match v.Optimal.how with
  | Optimal.Bound -> ()
  | Optimal.Ilp_exact | Optimal.Ilp_incumbent ->
      Alcotest.fail "expected fallback to the bound"

let test_optimal_lower_bounds_protocols () =
  (* Optimal (even the bound) must not be worse than a protocol run. *)
  let rng = Rapid_prelude.Rng.create 9 in
  let trace =
    Rapid_mobility.Mobility.exponential rng ~num_nodes:6 ~mean_inter_meeting:40.0
      ~duration:600.0 ~opportunity_bytes:5000
  in
  let workload =
    Workload.generate rng ~trace ~pkts_per_hour_per_dest:30.0 ~size:10 ()
  in
  if workload <> [] then begin
    let bound = Optimal.contention_free ~trace ~workload in
    let epidemic =
      (Engine.run ~protocol:(Epidemic.make ()) ~trace ~workload ()).Engine.report
    in
    if bound.Optimal.avg_delay_all > epidemic.Metrics.avg_delay_all +. 1e-6 then
      Alcotest.failf "bound %.2f worse than epidemic %.2f"
        bound.Optimal.avg_delay_all epidemic.Metrics.avg_delay_all
  end

(* ------------------------------------------------------------------ *)
(* Property: ILP delivery count equals brute force on tiny instances. *)

let prop_ilp_matches_brute_deliveries =
  QCheck.Test.make ~name:"optimal ILP = brute force deliveries" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rapid_prelude.Rng.create seed in
      let num_nodes = 4 in
      let n_contacts = 2 + Rapid_prelude.Rng.int rng 4 in
      let contacts =
        List.init n_contacts (fun i ->
            let a = Rapid_prelude.Rng.int rng num_nodes in
            let rec pick () =
              let b = Rapid_prelude.Rng.int rng num_nodes in
              if b = a then pick () else b
            in
            Contact.make ~time:(float_of_int (i + 1)) ~a ~b:(pick ()) ~bytes:1)
      in
      let trace =
        Trace.create ~num_nodes ~duration:(float_of_int (n_contacts + 2)) contacts
      in
      let n_packets = 1 + Rapid_prelude.Rng.int rng 3 in
      let workload =
        List.init n_packets (fun _ ->
            let src = Rapid_prelude.Rng.int rng num_nodes in
            let rec pick () =
              let dst = Rapid_prelude.Rng.int rng num_nodes in
              if dst = src then pick () else dst
            in
            spec ~src ~dst:(pick ()) ~size:1 ())
      in
      let brute = Rapid_hardness.Edp_reduction.max_deliveries_brute trace workload in
      match
        Optimal.evaluate ~objective:Optimal.Max_deliveries ~max_bb_nodes:2000
          ~trace ~workload ()
      with
      | v -> v.Optimal.delivered = brute)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_ilp_matches_brute_deliveries ]

let () =
  Alcotest.run "routing"
    [
      ( "slot order",
        [
          Alcotest.test_case "walk order never shows" `Quick
            test_slot_order_independence;
        ] );
      ( "spray_wait",
        [
          Alcotest.test_case "copies limited" `Quick test_spray_wait_limits_copies;
          Alcotest.test_case "single copy waits" `Quick
            test_spray_wait_single_copy_waits;
          Alcotest.test_case "direct always" `Quick
            test_spray_wait_direct_delivery_always;
          Alcotest.test_case "duplicate meeting keeps tokens" `Quick
            test_spray_wait_duplicate_meeting_keeps_tokens;
        ] );
      ( "prophet",
        [
          Alcotest.test_case "predictability gate" `Quick
            test_prophet_requires_predictability;
          Alcotest.test_case "aging" `Quick test_prophet_aging;
          Alcotest.test_case "encounter update symmetric" `Quick
            test_prophet_encounter_update_symmetric;
        ] );
      ( "maxprop",
        [
          Alcotest.test_case "acks purge" `Quick test_maxprop_acks_purge;
          Alcotest.test_case "chain delivery" `Quick test_maxprop_delivers_chain;
          Alcotest.test_case "metadata charged" `Quick test_maxprop_metadata_charged;
          Alcotest.test_case "no acks without delivery" `Quick
            test_maxprop_no_acks_without_delivery;
        ] );
      ( "random",
        [ Alcotest.test_case "acks reduce waste" `Slow test_random_acks_reduce_waste ] );
      ( "oracle",
        [
          Alcotest.test_case "single copy chain" `Quick
            test_oracle_forwards_single_copy;
          Alcotest.test_case "refuses dead end" `Quick test_oracle_refuses_dead_end;
          Alcotest.test_case "no path no forward" `Quick
            test_oracle_no_future_no_forward;
        ] );
      ( "optimal",
        [
          Alcotest.test_case "contention free" `Quick test_contention_free_simple;
          Alcotest.test_case "size limit" `Quick test_contention_free_size_limit;
          Alcotest.test_case "ilp contention" `Quick test_ilp_contention;
          Alcotest.test_case "two late beat one early" `Quick
            test_ilp_prefers_two_late_over_one_early;
          Alcotest.test_case "multi-hop contention" `Quick
            test_ilp_multi_hop_with_contention;
          Alcotest.test_case "fallback on big instance" `Quick
            test_ilp_fallback_on_big_instance;
          Alcotest.test_case "bound below protocols" `Quick
            test_optimal_lower_bounds_protocols;
        ] );
      ("properties", qcheck_cases);
    ]
