(* The repository benchmark. Runs one workload as a closed loop of
   cycles (each cycle runs every cell of the workload once, one after the
   other) for a fixed time, checks every output, and prints one JSON
   line: the end-to-end metrics, or with [--trace 1] the per-layer
   metrics. The names and units come from BENCHMARK.json.

     sh perfbench/run.sh --workload trace-hiload --seed 1 --seconds 20 --trace 0

   See perfbench/NOTES.md for the workloads, the metrics and the
   determinism rules. *)

module Json = Rapid_obs.Json

(* Set-up takes milliseconds, so it is repeated [setup_reps] times and
   [setup_s] is the median, scaled by host-speed samples taken between
   the repetitions (the host's speed at that moment, not the run's). *)
let setup_reps = 20

(* End-to-end times are scaled to a host on which [Layers.reference_s]
   takes [reference_nominal_s] (about its time on the machine the
   benchmark was sized on), using the median of [reference_reps] samples
   taken before every cycle and after the last. The unscaled figures are
   per-layer metrics ([host.*]). *)
let reference_nominal_s = 0.05
let reference_reps = 5

(* A run is at least 3 cycles; a traced run alternates untraced and
   traced cycles, at least 2 of each. *)
let min_cycles = 3

type cycle = {
  traced : bool;
  wall : float;
  table : Layers.table;  (** Per-layer figures, derived ones included. *)
  cells : (string * float * float) list;  (** (id, wall s, cpu s). *)
  exact : (string * string) list;
      (** Quantities that must repeat exactly across cycles of one mode. *)
}

let errors = ref []
let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Process CPU time, reaped child processes included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime

(* Figures derived from a traced cycle's raw table. *)
let derive_layers table ~wall =
  let get = Layers.get table and set = Hashtbl.replace table in
  List.iter
    (fun p ->
      set ("sim." ^ p ^ ".self_s")
        (get ("sim." ^ p ^ ".run_s") -. get (p ^ ".hooks_s")))
    Workloads.protocol_names;
  let hits = get "rapid.rate_cache_hits" and misses = get "rapid.rate_cache_misses" in
  set "rapid.rate_cache_hit_frac" (ratio hits (hits +. misses));
  set "rapid.meta_bytes"
    (get "rapid.meta_ack_bytes" +. get "rapid.meta_table_bytes"
   +. get "rapid.meta_entry_bytes");
  set "optimal.exact_frac" (ratio (get "optimal.exact") (get "optimal.instances"));
  set "lp.s_per_pivot" (ratio (get "lp.solve_s") (get "lp.pivots"));
  let attributed =
    List.fold_left
      (fun acc p -> acc +. get ("sim." ^ p ^ ".run_s"))
      0.0 Workloads.protocol_names
    +. get "optimal.contention_free_s" +. get "optimal.evaluate_total_s"
    +. get "store.write_s" +. get "store.read_s" +. get "bench.check_s"
  in
  set "obs.traced_wall_s" wall;
  set "obs.unattributed_frac" (ratio (wall -. attributed) wall)

let run_cycle (w : Workloads.t) cells ~traced ~dir =
  let table = Hashtbl.create 64 in
  let ctx =
    {
      Workloads.traced;
      table;
      hooks = Hashtbl.create 8;
      store_dir = dir;
      store = None;
      evaluate_s = [];
      children = [];
    }
  in
  let child_words = ref 0.0 and child_top = ref 0 in
  let counters = Hashtbl.create 32 in
  let digests = ref [] in
  let g0 = Gc.quick_stat () in
  let words0 = Gc.minor_words () in
  let t0 = Layers.now_s () in
  let cells =
    List.map
      (fun (cell : Workloads.cell) ->
        let r0 = Layers.registry () in
        let c0 = cpu_s () and w0 = Layers.now_s () in
        let out =
          match cell.Workloads.run ctx with
          | d -> Ok d
          | exception Workloads.Check_failed m -> Error m
          | exception e -> Error (Printexc.to_string e)
        in
        let wall = Layers.now_s () -. w0 and cpu = cpu_s () -. c0 in
        let cs, ts = Layers.registry_delta r0 (Layers.registry ()) in
        let cs, ts =
          List.fold_left
            (fun (cs, ts) (ch : Workloads.child) ->
              let minor, major, promoted = ch.gc in
              child_words := !child_words +. ch.words;
              child_top := max !child_top ch.top_heap_words;
              Layers.add table "gc.minor_collections" minor;
              Layers.add table "gc.major_collections" major;
              Layers.add table "gc.promoted_mwords" (promoted /. 1e6);
              (ch.counters @ cs, ch.timers @ ts))
            (cs, ts) ctx.Workloads.children
        in
        ctx.Workloads.children <- [];
        List.iter
          (fun (k, d) ->
            Layers.add table k (float_of_int d);
            Hashtbl.replace counters k
              (d + Option.value ~default:0 (Hashtbl.find_opt counters k)))
          cs;
        List.iter (fun (k, v) -> Layers.add table k v) ts;
        (match out with
        | Ok d -> digests := (cell.Workloads.id, d) :: !digests
        | Error m ->
            error "%s %s: %s" w.Workloads.name cell.Workloads.id m;
            digests := (cell.Workloads.id, "failed") :: !digests);
        (cell.Workloads.id, wall, cpu))
      cells
  in
  let wall = Layers.now_s () -. t0 in
  let words = Gc.minor_words () -. words0 +. !child_words in
  let g1 = Gc.quick_stat () in
  remove_tree dir;
  let hook_calls =
    Hashtbl.fold
      (fun proto h acc ->
        Layers.add_hooks table ~proto h;
        (proto, Array.to_list h.Layers.calls) :: acc)
      ctx.Workloads.hooks []
    |> List.sort compare
  in
  if ctx.Workloads.evaluate_s <> [] then begin
    Hashtbl.replace table "optimal.evaluate_s" (Layers.median ctx.Workloads.evaluate_s);
    Hashtbl.replace table "optimal.evaluate_max_s"
      (List.fold_left max 0.0 ctx.Workloads.evaluate_s)
  end;
  Hashtbl.replace table "alloc_mwords" (words /. 1e6);
  Hashtbl.replace table "child.top_heap_words" (float_of_int !child_top);
  Layers.add table "gc.minor_collections"
    (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
  Layers.add table "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  Layers.add table "gc.promoted_mwords"
    ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6);
  derive_layers table ~wall;
  let exact =
    (("minor_words", Printf.sprintf "%.0f" words)
     :: List.map (fun (p, calls) ->
            ( "hook_calls." ^ p,
              String.concat "," (List.map string_of_int calls) ))
          hook_calls)
    @ (Hashtbl.fold (fun k v acc -> (k, string_of_int v) :: acc) counters []
      |> List.sort compare)
    @ List.rev_map (fun (id, d) -> ("digest." ^ id, d)) !digests
  in
  { traced; wall; table; cells; exact }

let is_digest k = String.starts_with ~prefix:"digest." k

(* Keys whose values differ between two cycles, a missing key included. *)
let differing a b =
  List.sort_uniq compare (List.map fst a @ List.map fst b)
  |> List.filter (fun k -> List.assoc_opt k a <> List.assoc_opt k b)

(* Hook call counts and registry counters must repeat exactly: against
   the first cycle of the same mode, and the counters also across modes
   (hook calls are only counted when traced, but the program's own
   counters may not move). Minor words must repeat within a mode too,
   from the second cycle of the run on: the first one also fills the
   program's process-lifetime scratch arenas. *)
let check_repeatable cycles =
  let indexed = List.mapi (fun i c -> (i, c)) cycles in
  let first ~mode ~from =
    List.find_opt (fun (i, c) -> c.traced = mode && i >= from) indexed
  in
  let compare ~what ~keep (ri, ref_c) (i, c) =
    let pick c = List.filter (fun (k, _) -> keep k) c.exact in
    List.iter
      (fun k ->
        let show c = Option.value ~default:"absent" (List.assoc_opt k c.exact) in
        error "%s cycle %d: %s = %s, but %s in cycle %d" what i k (show c)
          (show ref_c) ri)
      (differing (pick ref_c) (pick c))
  in
  let is_words k = k = "minor_words" in
  let is_hook k = String.starts_with ~prefix:"hook_calls." k in
  List.iter
    (fun (i, c) ->
      let mode = if c.traced then "traced" else "untraced" in
      Option.iter
        (fun r ->
          compare ~what:mode ~keep:(fun k -> not (is_digest k || is_words k)) r (i, c))
        (first ~mode:c.traced ~from:0);
      if i > 0 then
        Option.iter
          (fun r -> compare ~what:mode ~keep:is_words r (i, c))
          (first ~mode:c.traced ~from:1);
      if c.traced then
        Option.iter
          (fun r ->
            compare ~what:"traced vs untraced"
              ~keep:(fun k -> not (is_digest k || is_words k || is_hook k))
              r (i, c))
          (first ~mode:false ~from:0))
    indexed

(* A cell fails when its checks failed, or when its digest differs from
   the first cycle's (traced and untraced outputs must be byte-identical)
   or, for the default seed, from the recorded one. *)
let failed_cells (w : Workloads.t) ~seed cycles =
  let golden =
    if seed = Golden.seed then
      Option.value ~default:[] (List.assoc_opt w.Workloads.name Golden.digests)
    else []
  in
  let first = List.hd cycles in
  List.fold_left
    (fun failed (i, c) ->
      List.fold_left
        (fun failed (k, v) ->
          if not (is_digest k) then failed
          else
            let id = String.sub k 7 (String.length k - 7) in
            let reason =
              if v = "failed" then Some "its checks failed"
              else if List.assoc_opt k first.exact <> Some v then
                Some "its output differs from the first cycle's"
              else
                match List.assoc_opt id golden with
                | Some g when g <> v -> Some ("its digest differs from the recorded " ^ g)
                | _ -> None
            in
            match reason with
            | None -> failed
            | Some r ->
                if v <> "failed" then error "cycle %d, %s: %s" i id r;
                failed + 1)
        failed c.exact)
    0
    (List.mapi (fun i c -> (i, c)) cycles)

(* ------------------------------------------------------------------ *)
(* Reporting. *)

let median_of cycles name =
  Layers.median (List.map (fun c -> Layers.get c.table name) cycles)

(* Sum over cells of each cell's median: one slow cell in one cycle
   (a preempted process) does not move the figure. *)
let per_cell_median cycles pick =
  match cycles with
  | [] -> 0.0
  | c :: _ ->
      List.fold_left
        (fun acc (id, _, _) ->
          acc
          +. Layers.median
               (List.map
                  (fun c ->
                    let _, wall, cpu =
                      List.find (fun (id', _, _) -> id' = id) c.cells
                    in
                    pick wall cpu)
                  cycles))
        0.0 c.cells

let print_layers (w : Workloads.t) traced untraced =
  let m = median_of traced in
  let wall = m "obs.traced_wall_s" in
  let row name incl self =
    if incl > 0.0 then
      Printf.eprintf "  %-34s %9.4f %9.4f %6.1f%%\n" name incl self
        (100.0 *. ratio self wall)
  in
  Printf.eprintf "layers of %s (traced cycle, median of %d; untraced %d)\n"
    w.Workloads.name (List.length traced) (List.length untraced);
  Printf.eprintf "  %-34s %9s %9s %7s\n" "layer" "incl s" "self s" "self%";
  List.iter
    (fun p ->
      row ("sim." ^ p) (m ("sim." ^ p ^ ".run_s")) (m ("sim." ^ p ^ ".self_s"));
      let hooks = m (p ^ ".hooks_s") in
      let nested = if p = "rapid" then m "rapid.rank_s" else 0.0 in
      row ("  " ^ p ^ " hooks") hooks (hooks -. nested);
      if p = "rapid" then begin
        row "    rapid.rank (in on_contact)" nested nested;
        row "    meeting_matrix.row_build (nested)" (m "meeting_matrix.row_build_s") 0.0
      end)
    Workloads.protocol_names;
  row "optimal.contention_free" (m "optimal.contention_free_s") (m "optimal.contention_free_s");
  row "optimal.evaluate" (m "optimal.evaluate_total_s")
    (m "optimal.evaluate_total_s" -. m "lp.solve_s");
  row "  lp.solve" (m "lp.solve_s") (m "lp.solve_s");
  row "store.write" (m "store.write_s") (m "store.write_s");
  row "store.read" (m "store.read_s") (m "store.read_s");
  row "bench.check" (m "bench.check_s") (m "bench.check_s");
  row "unattributed" (wall *. m "obs.unattributed_frac") (wall *. m "obs.unattributed_frac");
  Printf.eprintf "  traced cycle %.4f s, untraced %.4f s\n" wall
    (Layers.median (List.map (fun c -> c.wall) untraced))

(* Names and units of the metrics to print, from BENCHMARK.json. *)
let declared key =
  let doc = Json.of_file "BENCHMARK.json" in
  match Json.member key doc with
  | Some (Json.List l) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
        l
  | _ -> failwith ("BENCHMARK.json: no " ^ key)

let () =
  let workload = ref "" and seed = ref Golden.seed and seconds = ref 20.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
        exit 2
  in
  if (!trace <> 0 && !trace <> 1) || not (!seconds > 0.0) then begin
    prerr_endline "--trace must be 0 or 1 and --seconds positive";
    exit 2
  end;
  let traced_run = !trace = 1 in
  let wanted = declared (if traced_run then "per_layer" else "end_to_end") in
  (* Counters that register lazily would otherwise appear mid-run. *)
  Rapid_store.Store.register_counters ();
  Rapid_core.Rate_cache.register_counters ();
  Rapid_faults.Faults.register_counters ();
  let setups = ref [] in
  let setup () =
    let table = Hashtbl.create 8 in
    let t0 = Layers.now_s () in
    let cells = w.Workloads.setup ~seed:!seed table in
    setups := (Layers.now_s () -. t0, table) :: !setups;
    cells
  in
  (* Only one repetition's cells are kept: holding every repetition's
     inputs would inflate the heap being measured. *)
  let cells = setup () in
  let setup_host =
    List.init setup_reps (fun _ ->
        ignore (setup ());
        Layers.reference_s ())
  in
  let tmp =
    Filename.concat ".perfbench-tmp" (Printf.sprintf "%08d" (Unix.getpid ()))
  in
  let host = ref [] in
  let sample () =
    for _ = 1 to reference_reps do
      host := Layers.reference_s () :: !host
    done
  in
  let start = Layers.now_s () in
  (* At least [min_cycles] cycles, so that the exact quantities are
     compared between two warm cycles of each mode. *)
  let rec loop i acc =
    let enough =
      if traced_run then List.length (List.filter (fun c -> c.traced) acc) >= min_cycles - 1
      else List.length acc >= min_cycles
    in
    if enough && Layers.now_s () -. start >= !seconds then List.rev acc
    else
      let traced = traced_run && i mod 2 = 1 in
      let dir = Filename.concat tmp (Printf.sprintf "cycle-%06d" i) in
      sample ();
      loop (i + 1) (run_cycle w cells ~traced ~dir :: acc)
  in
  let cycles = loop 0 [] in
  sample ();
  let host_reference_s = Layers.median !host in
  let scale = reference_nominal_s /. host_reference_s in
  List.iter
    (fun (k, d) ->
      if is_digest k then
        Printf.eprintf "cell %s %s\n" (String.sub k 7 (String.length k - 7)) d)
    (List.hd cycles).exact;
  remove_tree tmp;
  (try Sys.rmdir ".perfbench-tmp" with Sys_error _ -> ());
  check_repeatable cycles;
  let attempted = List.length cycles * List.length cells in
  let failed = failed_cells w ~seed:!seed cycles in
  let traced = List.filter (fun c -> c.traced) cycles
  and untraced = List.filter (fun c -> not c.traced) cycles in
  let setup_median name =
    Layers.median (List.map (fun (_, t) -> Layers.get t name) !setups)
  in
  let rec value name =
    match name with
    | "wall_s" -> scale *. value "host.wall_s"
    | "cpu_s" -> scale *. value "host.cpu_s"
    | "setup_s" ->
        reference_nominal_s /. Layers.median setup_host *. value "host.setup_s"
    | "host.wall_s" -> per_cell_median untraced (fun wall _ -> wall)
    | "host.cpu_s" -> per_cell_median untraced (fun _ cpu -> cpu)
    | "host.setup_s" -> Layers.median (List.map fst !setups)
    | "host.reference_s" -> host_reference_s
    | "alloc_mwords" ->
        (* The last cycle: warm, and exactly repeatable (checked above). *)
        Layers.get (List.nth untraced (List.length untraced - 1)).table "alloc_mwords"
    | "peak_heap_mb" ->
        let top =
          List.fold_left
            (fun m c -> max m (Layers.get c.table "child.top_heap_words"))
            (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)
            cycles
        in
        top *. float_of_int (Sys.word_size / 8) /. 1e6
    | "trace.gen_s" | "workload.gen_s" | "workload.packets" -> setup_median name
    | "obs.trace_overhead_frac" ->
        ratio (median_of traced "obs.traced_wall_s")
          (Layers.median (List.map (fun c -> c.wall) untraced))
        -. 1.0
    | "fail_frac" -> ratio (float_of_int failed) (float_of_int attempted)
    | name -> median_of traced name
  in
  if traced_run then print_layers w traced untraced
  else
    Printf.eprintf "host: wall %.4f s, cpu %.4f s, setup %.6f s, reference %.5f s\n"
      (value "host.wall_s") (value "host.cpu_s") (value "host.setup_s")
      host_reference_s;
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = value name in
        if not (Float.is_finite v) then error "metric %s is not finite" name;
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      wanted
  in
  List.iter (fun e -> Printf.eprintf "error: %s\n" e) (List.rev !errors);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!errors = [] && failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))
