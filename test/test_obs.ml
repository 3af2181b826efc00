(* Tests for Rapid_obs: the JSON writer, counter/timer registries, and
   tracer sinks. *)

module Json = Rapid_obs.Json
module Counter = Rapid_obs.Counter
module Timer = Rapid_obs.Timer
module Tracer = Rapid_obs.Tracer

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "true" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "false" "false" (Json.to_string (Json.Bool false));
  Alcotest.(check string) "int" "42" (Json.to_string (Json.Int 42));
  Alcotest.(check string) "negative int" "-7" (Json.to_string (Json.Int (-7)));
  Alcotest.(check string) "float" "1.5" (Json.to_string (Json.Float 1.5));
  Alcotest.(check string) "integral float keeps point" "3.0"
    (Json.to_string (Json.Float 3.0))

let test_json_non_finite_is_null () =
  (* JSON has no nan/inf; the metrics layer relies on them serializing as
     null (e.g. max_delay over zero deliveries). *)
  List.iter
    (fun f ->
      Alcotest.(check string) "non-finite" "null" (Json.to_string (Json.Float f)))
    [ nan; infinity; neg_infinity ]

let test_json_string_escaping () =
  Alcotest.(check string) "plain" {|"abc"|} (Json.to_string (Json.String "abc"));
  Alcotest.(check string) "quote and backslash" {|"a\"b\\c"|}
    (Json.to_string (Json.String {|a"b\c|}));
  Alcotest.(check string) "newline tab cr" {|"a\nb\tc\r"|}
    (Json.to_string (Json.String "a\nb\tc\r"));
  Alcotest.(check string) "control char" {|"\u0001"|}
    (Json.to_string (Json.String "\001"))

let test_json_nesting () =
  let doc =
    Json.Obj
      [
        ("xs", Json.List [ Json.Int 1; Json.Int 2 ]);
        ("empty", Json.Obj []);
        ("s", Json.String "v");
      ]
  in
  Alcotest.(check string) "compact"
    {|{"xs":[1,2],"empty":{},"s":"v"}|}
    (Json.to_string doc);
  (* Pretty form must contain the same atoms, just indented. *)
  let pretty = Json.to_string_pretty doc in
  Alcotest.(check bool) "pretty mentions key" true
    (Astring.String.is_infix ~affix:{|"xs": [|} pretty)

let test_json_to_file () =
  let path = Filename.temp_file "rapid_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Json.to_file path (Json.Obj [ ("k", Json.Int 1) ]);
      let ic = open_in path in
      let len = in_channel_length ic in
      let content = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "trailing newline" true
        (String.length content > 0 && content.[String.length content - 1] = '\n'))

(* The writer's contract, stated with Printf as the reference: non-finite
   floats are null, integer-valued ones below 1e15 render as "%.1f",
   everything else as "%.17g"; strings escape '"', '\\', and control
   bytes. *)
let reference_float f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let reference_escaped s =
  let buf = Buffer.create 16 in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_edges =
  let base =
    [ 0.0; 1e15 -. 1.0; 1e15; 2.0 ** 53.0; 2.0 ** 53.0 +. 2.0; 5e-324;
      2.2250738585072009e-308; max_float; min_float; 1.0; 42.0;
      123456789.0; 0.1; 1e21; 1e-7; 4611686018427387904.0 ]
  in
  base @ List.map Float.neg base @ [ nan; infinity; neg_infinity ]

let float_gen =
  QCheck.Gen.(
    oneof
      [
        map Int64.float_of_bits int64;
        oneofl float_edges;
        map float_of_int (int_range (-1_000_000_000) 1_000_000_000);
        float;
      ])

let arb_float = QCheck.make ~print:(Printf.sprintf "%h") float_gen

let prop_float_render =
  QCheck.Test.make ~name:"float rendering = Printf reference" ~count:20_000
    arb_float (fun f -> Json.to_string (Json.Float f) = reference_float f)

let test_float_edges () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (reference_float f)
        (Json.to_string (Json.Float f)))
    float_edges;
  Alcotest.(check string) "negative zero" "-0.0" (Json.to_string (Json.Float (-0.0)))

(* Finite floats read back bit-identical. Integer-valued floats of 1e15
   and above print without a point or exponent under %.17g (e.g.
   9007199254740992), so they read back as Int; the metrics decoder maps
   those through float_of_int, which is exact below 2^62. *)
let prop_float_roundtrip =
  QCheck.Test.make ~name:"float render/parse is bit-identical" ~count:20_000
    arb_float (fun f ->
      QCheck.assume (Float.is_finite f);
      let back =
        match Json.of_string (Json.to_string (Json.Float f)) with
        | Json.Float g -> g
        | Json.Int i -> float_of_int i
        | _ -> nan
      in
      Int64.equal (Int64.bits_of_float back) (Int64.bits_of_float f))

let arb_bytes =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 40))

let prop_escaping =
  QCheck.Test.make ~name:"string escaping = reference; parses back" ~count:5_000
    arb_bytes (fun s ->
      let rendered = Json.to_string (Json.String s) in
      rendered = reference_escaped s && Json.of_string rendered = Json.String s)

(* ------------------------------------------------------------------ *)
(* Json reader *)

let test_json_parse_scalars () =
  Alcotest.(check bool) "null" true (Json.of_string "null" = Json.Null);
  Alcotest.(check bool) "true" true (Json.of_string "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (Json.of_string " false " = Json.Bool false);
  Alcotest.(check bool) "int" true (Json.of_string "42" = Json.Int 42);
  Alcotest.(check bool) "negative" true (Json.of_string "-7" = Json.Int (-7));
  (* A decimal point or exponent makes it a Float, otherwise an Int. *)
  Alcotest.(check bool) "float" true (Json.of_string "1.5" = Json.Float 1.5);
  Alcotest.(check bool) "exponent" true (Json.of_string "2e3" = Json.Float 2000.0);
  Alcotest.(check bool) "string" true (Json.of_string {|"hi"|} = Json.String "hi")

let test_json_parse_roundtrip () =
  (* Everything the writer emits must read back structurally equal —
     check_bench.exe depends on this for BENCH.json. *)
  let doc =
    Json.Obj
      [
        ("schema", Json.String "rapid-bench/1");
        ("xs", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null; Json.Bool true ]);
        ("nested", Json.Obj [ ("s", Json.String "a\"b\\c\n\t") ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
      ]
  in
  Alcotest.(check bool) "compact roundtrip" true
    (Json.of_string (Json.to_string doc) = doc);
  Alcotest.(check bool) "pretty roundtrip" true
    (Json.of_string (Json.to_string_pretty doc) = doc)

let test_json_parse_escapes () =
  Alcotest.(check bool) "named escapes" true
    (Json.of_string {|"a\nb\tc\r\/\"\\"|} = Json.String "a\nb\tc\r/\"\\");
  (* \u escapes decode to UTF-8 bytes. *)
  Alcotest.(check bool) "ascii \\u" true
    (Json.of_string {|"\u0041"|} = Json.String "A");
  Alcotest.(check bool) "two-byte \\u" true
    (Json.of_string {|"\u00e9"|} = Json.String "\xc3\xa9");
  Alcotest.(check bool) "three-byte \\u" true
    (Json.of_string {|"\u20AC"|} = Json.String "\xe2\x82\xac");
  (* A surrogate pair is one supplementary code point: 4-byte UTF-8. *)
  Alcotest.(check bool) "surrogate pair" true
    (Json.of_string {|"a\ud83d\ude00b"|} = Json.String "a\xf0\x9f\x98\x80b");
  Alcotest.(check bool) "highest code point" true
    (Json.of_string {|"\udbff\udfff"|} = Json.String "\xf4\x8f\xbf\xbf");
  (* Raw bytes >= 0x20 pass through unchanged, UTF-8 or not. *)
  Alcotest.(check bool) "raw bytes" true
    (Json.of_string "\"\xc3\xa9\xff\"" = Json.String "\xc3\xa9\xff")

let test_json_parse_errors () =
  let fails s =
    match Json.of_string s with
    | exception Json.Parse_error msg ->
        if not (Astring.String.is_infix ~affix:" at offset " msg) then
          Alcotest.failf "error on %S lacks its offset: %s" s msg
    | _ -> Alcotest.failf "expected Parse_error on %S" s
  in
  fails "";
  fails "{";
  fails "[1,]";
  fails {|{"a":1,}|};
  fails {|{"a" 1}|};
  fails "nul";
  fails {|"unterminated|};
  (* Trailing garbage after a complete value is rejected too. *)
  fails "1 2";
  fails "{} x";
  (* RFC 8259 numbers: no '+', no leading zeros, digits on both sides of
     the point, digits in the exponent. *)
  List.iter fails
    [ "+1"; "01"; "-01"; "00"; ".5"; "-.5"; "1."; "1.e5"; "-"; "1e"; "1e+";
      "[1.]"; "-a"; "0x10"; "1_000" ];
  (* \u takes exactly four hex digits ('_' is not one, though OCaml's
     int_of_string would skip it), and surrogates must pair up. *)
  List.iter fails
    [ {|"\u00_1"|}; {|"\u+041"|}; {|"\u004"|}; {|"\u00|}; {|"\ud83d\ude0|};
      {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ud83d\u0041"|}; {|"\ude00"|};
      {|"\ude00\ud83d"|}; {|"\x"|} ];
  (* Control characters inside a string must be escaped. *)
  fails "\"a\nb\"";
  fails "\"\001\"";
  (* The offset names the offending byte. *)
  let offset_of s =
    match Json.of_string s with
    | exception Json.Parse_error msg -> msg
    | _ -> Alcotest.failf "expected Parse_error on %S" s
  in
  Alcotest.(check string) "leading zero offset" "leading zero in number at offset 2"
    (offset_of "[01]");
  Alcotest.(check string) "lone surrogate offset" "lone high surrogate at offset 2"
    (offset_of {|["\ud83d"]|})

(* Malformed input of any shape is a Parse_error, never another
   exception: random bytes, random strings over the grammar's own
   alphabet, and truncations of a document that uses each construct
   (so input can end inside a number, literal or escape). *)
let prop_parse_total =
  let alphabet = {|{}[],:" \/0123456789.-+eEtrufalsnbu-dDcCfF|} in
  let doc =
    {|{"a":[1,-2.5e+3,0.5E-2,"x\u00e9\ud83d\ude00\n",true,null,{"b":false}]}|}
  in
  let gen =
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 30);
          string_size
            ~gen:(map (String.get alphabet) (int_range 0 (String.length alphabet - 1)))
            (int_range 0 30);
          map (String.sub doc 0) (int_range 0 (String.length doc - 1));
        ])
  in
  QCheck.Test.make ~name:"reader fails only with Parse_error" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%S") gen) (fun s ->
      match Json.of_string s with
      | _ -> true
      | exception Json.Parse_error _ -> true)

let test_json_parse_int_rule () =
  (* No '.', 'e' or 'E' means Int; an Int that overflows falls back to
     Float, as int_of_string/float_of_string would decide. *)
  let parses s want =
    Alcotest.(check bool) s true (Json.of_string s = want)
  in
  parses "0" (Json.Int 0);
  parses "-0" (Json.Int 0);
  parses "100" (Json.Int 100);
  parses "4611686018427387903" (Json.Int max_int);
  parses "-4611686018427387904" (Json.Int min_int);
  parses "4611686018427387904" (Json.Float 4611686018427387904.0);
  parses "-4611686018427387905" (Json.Float (-4611686018427387905.0));
  parses "12345678901234567890" (Json.Float 12345678901234567890.0);
  parses "1.0" (Json.Float 1.0);
  parses "1e2" (Json.Float 100.0);
  parses "1E+2" (Json.Float 100.0);
  parses "-2.5e-1" (Json.Float (-0.25));
  parses "0.5" (Json.Float 0.5)

let test_json_of_file () =
  let path = Filename.temp_file "rapid_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let doc = Json.Obj [ ("k", Json.List [ Json.Int 1; Json.Int 2 ]) ] in
      Json.to_file path doc;
      Alcotest.(check bool) "file roundtrip" true (Json.of_file path = doc))

let test_json_member () =
  let doc = Json.Obj [ ("a", Json.Int 1); ("b", Json.Null) ] in
  Alcotest.(check bool) "present" true (Json.member "a" doc = Some (Json.Int 1));
  Alcotest.(check bool) "null member is found" true
    (Json.member "b" doc = Some Json.Null);
  Alcotest.(check bool) "absent" true (Json.member "c" doc = None);
  Alcotest.(check bool) "non-object" true (Json.member "a" (Json.Int 1) = None)

(* ------------------------------------------------------------------ *)
(* Counter *)

let test_counter_registry () =
  let c = Counter.create "test.obs.counter" in
  Counter.reset c;
  Alcotest.(check int) "starts at zero" 0 (Counter.value c);
  Counter.incr c;
  Counter.add c 4;
  Alcotest.(check int) "accumulates" 5 (Counter.value c);
  (* Same name resolves to the same cell (module-level creates are
     idempotent across functor instantiations). *)
  let c' = Counter.create "test.obs.counter" in
  Counter.incr c';
  Alcotest.(check int) "shared cell" 6 (Counter.value c);
  Alcotest.(check (option int)) "snapshot sees it" (Some 6)
    (List.assoc_opt "test.obs.counter" (Counter.snapshot ()));
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.value c)

let test_counter_snapshot_sorted () =
  ignore (Counter.create "test.obs.b");
  ignore (Counter.create "test.obs.a");
  let names = List.map fst (Counter.snapshot ()) in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names

(* ------------------------------------------------------------------ *)
(* Timer *)

let test_timer () =
  let t = Timer.create "test.obs.timer" in
  let n0 = Timer.count t in
  let x = Timer.time t (fun () -> 41 + 1) in
  Alcotest.(check int) "returns result" 42 x;
  Alcotest.(check int) "activation counted" (n0 + 1) (Timer.count t);
  let before = Timer.total_s t in
  Timer.add_s t 1.5;
  if Timer.total_s t < before +. 1.5 then Alcotest.fail "add_s lost time";
  Alcotest.(check int) "add_s counted" (n0 + 2) (Timer.count t);
  (* Exceptions still get timed. *)
  (match Timer.time t (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "raise counted" (n0 + 3) (Timer.count t)

(* ------------------------------------------------------------------ *)
(* Tracer *)

let ev_contact = Tracer.Contact { time = 1.0; a = 0; b = 1; bytes = 10 }
let ev_delivery = Tracer.Delivery { time = 2.0; packet = 3; delay = 1.5 }
let ev_drop = Tracer.Drop { time = 3.0; node = 1; packet = 4 }

let test_tracer_null () =
  Alcotest.(check bool) "null disabled" false (Tracer.enabled Tracer.null);
  (* Emitting into the null tracer is a no-op, not an error. *)
  Tracer.emit Tracer.null ev_contact

let test_tracer_collector () =
  let c = Tracer.Collector.create ~keep_events:2 () in
  let tr = Tracer.Collector.tracer c in
  Alcotest.(check bool) "enabled" true (Tracer.enabled tr);
  List.iter (Tracer.emit tr) [ ev_contact; ev_delivery; ev_drop; ev_drop ];
  Alcotest.(check int) "total counts beyond cap" 4 (Tracer.Collector.total c);
  Alcotest.(check int) "event log capped" 2
    (List.length (Tracer.Collector.events c));
  Alcotest.(check (list (pair string int)))
    "per-label counts"
    [ ("contact", 1); ("delivery", 1); ("drop", 2) ]
    (Tracer.Collector.counts c)

let test_tracer_event_labels () =
  Alcotest.(check string) "contact" "contact" (Tracer.event_label ev_contact);
  Alcotest.(check string) "delivery" "delivery" (Tracer.event_label ev_delivery);
  Alcotest.(check string) "ack_purge" "ack_purge"
    (Tracer.event_label (Tracer.Ack_purge { time = 0.0; node = 0; packet = 0 }))

let test_tracer_jsonl () =
  let path = Filename.temp_file "rapid_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let tr = Tracer.Jsonl.tracer oc in
      Tracer.emit tr ev_contact;
      Tracer.emit tr ev_delivery;
      close_out oc;
      let ic = open_in path in
      let l1 = input_line ic in
      let l2 = input_line ic in
      let eof = match input_line ic with exception End_of_file -> true | _ -> false in
      close_in ic;
      Alcotest.(check bool) "one object per line" true eof;
      Alcotest.(check bool) "labelled" true
        (Astring.String.is_prefix ~affix:{|{"event":"contact"|} l1);
      Alcotest.(check bool) "second labelled" true
        (Astring.String.is_prefix ~affix:{|{"event":"delivery"|} l2))

(* A whole engine run's event stream: the JSONL file must be exactly the
   per-event [Json.to_string] lines of the same events. *)
let test_tracer_jsonl_engine_run () =
  let open Rapid_prelude in
  let trace =
    Rapid_mobility.Mobility.exponential (Rng.create 3) ~num_nodes:6
      ~mean_inter_meeting:60.0 ~duration:600.0 ~opportunity_bytes:4096
  in
  let workload =
    Rapid_trace.Workload.generate (Rng.create 4) ~trace
      ~pkts_per_hour_per_dest:60.0 ~size:1024 ()
  in
  let path = Filename.temp_file "rapid_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let c = Tracer.Collector.create ~keep_events:max_int () in
      let oc = open_out_bin path in
      let jsonl = Tracer.Jsonl.tracer oc in
      let both =
        Tracer.make (fun ev ->
            Tracer.emit jsonl ev;
            Tracer.emit (Tracer.Collector.tracer c) ev)
      in
      ignore
        (Rapid_sim.Engine.run ~tracer:both
           ~protocol:(Rapid_core.Rapid.make_default Rapid_core.Metric.Average_delay)
           ~trace ~workload ());
      close_out oc;
      let events = Tracer.Collector.events c in
      if List.length events < 100 then
        Alcotest.failf "only %d events; the run is too small to test"
          (List.length events);
      let want =
        String.concat ""
          (List.map
             (fun ev -> Json.to_string (Tracer.event_to_json ev) ^ "\n")
             events)
      in
      let ic = open_in_bin path in
      let got = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "byte-identical stream" true (String.equal want got))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "non-finite is null" `Quick
            test_json_non_finite_is_null;
          Alcotest.test_case "string escaping" `Quick test_json_string_escaping;
          Alcotest.test_case "nesting" `Quick test_json_nesting;
          Alcotest.test_case "to_file" `Quick test_json_to_file;
          Alcotest.test_case "parse scalars" `Quick test_json_parse_scalars;
          Alcotest.test_case "parse roundtrip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "parse escapes" `Quick test_json_parse_escapes;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "parse int rule" `Quick test_json_parse_int_rule;
          Alcotest.test_case "float edges" `Quick test_float_edges;
          Alcotest.test_case "of_file" `Quick test_json_of_file;
          Alcotest.test_case "member" `Quick test_json_member;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_float_render; prop_float_roundtrip; prop_escaping;
              prop_parse_total ] );
      ( "counter",
        [
          Alcotest.test_case "registry" `Quick test_counter_registry;
          Alcotest.test_case "snapshot sorted" `Quick test_counter_snapshot_sorted;
        ] );
      ("timer", [ Alcotest.test_case "accumulation" `Quick test_timer ]);
      ( "tracer",
        [
          Alcotest.test_case "null" `Quick test_tracer_null;
          Alcotest.test_case "collector" `Quick test_tracer_collector;
          Alcotest.test_case "event labels" `Quick test_tracer_event_labels;
          Alcotest.test_case "jsonl" `Quick test_tracer_jsonl;
          Alcotest.test_case "jsonl engine run" `Quick
            test_tracer_jsonl_engine_run;
        ] );
    ]
