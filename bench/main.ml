(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables I-IV, Figs. 6-7), measures the instrumentation
   slowdown (Section V-A), runs the design ablations, and exposes one
   Bechamel micro-benchmark per experiment.

   Usage:
     bench/main.exe                 run everything
     bench/main.exe table1 ... fig7 overhead ablation bechamel
                                    run selected experiments
     bench/main.exe engine --json   execution-engine speedups, also written
                                    to BENCH_engine.json (--tiny: small
                                    workload for CI smoke runs) *)

module Machine = Tq_vm.Machine
module Engine = Tq_dbi.Engine
module Symtab = Tq_vm.Symtab
module Scenario = Tq_wfs.Scenario
module Harness = Tq_wfs.Harness
module G = Tq_gprofsim.Gprofsim
module Q = Tq_quad.Quad
module Tq = Tq_tquad.Tquad
module Ph = Tq_tquad.Phases
module R = Tq_report.Report

let scen = Scenario.default

(* --json: experiments that support it also write BENCH_<name>.json so the
   perf trajectory is machine-readable across PRs.  Each file is a run
   manifest (Tq_obs.Manifest, schema-versioned) whose extra top-level
   members are the experiment's own fields — a superset of the pre-manifest
   BENCH_*.json layout, so existing CI guards keep matching.  --tiny
   shrinks the engine experiment's workload (CI smoke). *)
let json_mode = ref false
let tiny_mode = ref false

module Obs = Tq_obs

(* Per-experiment span recorder / metrics registry; live only under --json.
   The driver re-creates both around each experiment and emits pending
   manifests after the experiment's own span has closed, so every manifest
   carries the full span tree of the experiment that produced it. *)
let obs = ref Obs.Span.disabled
let obs_metrics = ref Obs.Metrics.disabled
let bspan ?attrs name f = Obs.Span.with_span !obs ?attrs name f
let pending_manifests = ref []

let json_emit name fields =
  if !json_mode then pending_manifests := (name, fields) :: !pending_manifests

let flush_manifests () =
  List.iter
    (fun (name, fields) ->
      let path = Printf.sprintf "BENCH_%s.json" name in
      let doc =
        Obs.Manifest.make ~tool:"bench" ~subcommand:name
          ~argv:(Array.to_list Sys.argv)
          ~extra:fields !obs !obs_metrics
      in
      Obs.Manifest.write path doc;
      Printf.printf "  wrote %s\n" path)
    (List.rev !pending_manifests);
  pending_manifests := []

let jstr s = Obs.Json.Str s
let jint i = Obs.Json.Int i
let jfloat f = Obs.Json.Float f
let jbool b = Obs.Json.Bool b

let section title = Printf.printf "\n==== %s ====\n%!" title

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let fresh_engine () =
  let m = Machine.create ~vfs:(Harness.make_vfs scen) (Harness.compile scen) in
  Engine.create m

(* ---------- cached profiler runs (shared across experiments) ---------- *)

let gprof_run =
  lazy
    (let eng = fresh_engine () in
     let g = G.attach ~period:2_000 eng in
     let (), dt = timed (fun () -> Engine.run ~fuel:(Harness.fuel scen) eng) in
     (g, Machine.instr_count (Engine.machine eng), dt))

let quad_run =
  lazy
    (let eng = fresh_engine () in
     let q = Q.attach eng in
     let (), dt = timed (fun () -> Engine.run ~fuel:(Harness.fuel scen) eng) in
     (q, dt))

let tquad_at interval =
  let eng = fresh_engine () in
  let t = Tq.attach ~slice_interval:interval eng in
  let (), dt = timed (fun () -> Engine.run ~fuel:(Harness.fuel scen) eng) in
  (t, dt)

let tquad_fine = lazy (tquad_at 2_000)

let total_instr () =
  let _, n, _ = Lazy.force gprof_run in
  n

(* top-N kernel routines by gprof self time *)
let top_kernels n =
  let g, _, _ = Lazy.force gprof_run in
  G.flat_profile g
  |> List.filteri (fun i _ -> i < n)
  |> List.map (fun (r : G.row) -> r.routine)

let bottom_kernels n =
  let g, _, _ = Lazy.force gprof_run in
  let rows = G.flat_profile g in
  let len = List.length rows in
  rows
  |> List.filteri (fun i _ -> i >= len - n)
  |> List.map (fun (r : G.row) -> r.routine)

let in_tquad t routines =
  let names = List.map (fun r -> r.Symtab.name) routines in
  List.filter (fun r -> List.mem r.Symtab.name names) (Tq.kernels t)

(* ---------- Table I ---------- *)

let table1 () =
  section "Table I: gprof flat profile of the wfs application";
  let g, n, dt = Lazy.force gprof_run in
  Printf.printf "(%s; %s instructions; profiling run %.2fs; period %d instr)\n"
    (Scenario.describe scen)
    (Tq_util.Text_table.int_cell n)
    dt 2_000;
  print_string (R.flat_profile (G.flat_profile g));
  Printf.printf
    "paper shape check: wav_store+fft1d share = %.1f%% (paper: ~60%%), \
     wav_store calls = 1\n"
    (match G.flat_profile g with
    | a :: b :: _ -> a.pct_time +. b.pct_time
    | _ -> 0.)

(* ---------- Table II ---------- *)

let table2 () =
  section "Table II: QUAD producer/consumer data usage (bytes and UnMA)";
  let q, dt = Lazy.force quad_run in
  Printf.printf "(QUAD run %.2fs; shadow pages %d)\n" dt (Q.shadow_pages q);
  print_string (R.quad_table (Q.rows q));
  let rows = Q.rows q in
  let find name = List.find_opt (fun r -> r.Q.routine.Symtab.name = name) rows in
  (match (find "AudioIo_setFrames", find "zeroRealVec") with
  | Some sf, Some zr ->
      Printf.printf
        "shape checks: AudioIo_setFrames OUT/OUT-UnMA = %.2f (paper: ~1, \
         streaming distinct addresses); zeroRealVec IN incl/excl ratio = %s \
         (paper: > 300)\n"
        (float_of_int sf.Q.out_bytes_incl
        /. float_of_int (max 1 sf.Q.out_unma_incl))
        (if zr.Q.in_bytes = 0 then "inf"
         else
           Printf.sprintf "%.0f"
             (float_of_int zr.Q.in_bytes_incl /. float_of_int zr.Q.in_bytes))
  | _ -> ());
  let bindings = Q.bindings q in
  Printf.printf "\nheaviest producer->consumer bindings:\n";
  List.iteri
    (fun i (b : Q.binding) ->
      if i < 12 then
        Printf.printf "  %-24s -> %-24s %12s B (incl), %10s UnMA\n"
          b.producer.Symtab.name b.consumer.Symtab.name
          (Tq_util.Text_table.int_cell b.bytes_incl)
          (Tq_util.Text_table.int_cell b.unma))
    bindings

(* ---------- Table III ---------- *)

(* The paper profiles the QUAD-instrumented binary with gprof: every
   non-stack memory access pays the analysis-routine cost, so
   memory-streaming kernels rise in rank.  We model that cost as a fixed
   number of instrumentation instructions per global byte traced and
   recompute the flat profile. *)
let instr_cost_per_byte = 25.

let table3 () =
  section
    "Table III: flat profile of the QUAD-instrumented application (cost model)";
  let g, _, _ = Lazy.force gprof_run in
  let t, _ = Lazy.force tquad_fine in
  let base = G.flat_profile g in
  let adjusted =
    List.map
      (fun (r : G.row) ->
        let name = r.routine.Symtab.name in
        let extra =
          match
            List.find_opt (fun k -> k.Symtab.name = name) (Tq.kernels t)
          with
          | None -> 0.
          | Some k ->
              let tot = Tq.totals t k in
              instr_cost_per_byte
              *. float_of_int (tot.Tq.read_excl + tot.Tq.write_excl)
              /. 1e9 (* simulated clock: instructions -> seconds *)
        in
        (name, r.self_seconds +. extra))
      base
  in
  Printf.printf "(model: +%.0f instrumentation instructions per global byte)\n"
    instr_cost_per_byte;
  print_string (R.instrumented_profile ~base ~adjusted);
  Printf.printf
    "paper shape check: AudioIo_setFrames rises (paper: rank 6 -> 3, 4%% -> \
     11%%), bitrev falls (paper: rank 4 -> 11)\n"

(* ---------- Table IV ---------- *)

let wfs_phase_groups =
  [
    ("initialization", [ "ffw"; "ldint" ]);
    ("wave load", [ "wav_load" ]);
    ( "wave propagation",
      [ "vsmult2d"; "calculateGainPQ"; "PrimarySource_deriveTP";
        "PrimarySource_update" ] );
    ( "WFS main processing",
      [ "fft1d"; "DelayLine_processChunk"; "bitrev"; "zeroRealVec";
        "AudioIo_setFrames"; "perm"; "cadd"; "cmult"; "Filter_process";
        "Filter_process_pre_"; "zeroCplxVec"; "r2c"; "c2r"; "AudioIo_getFrames" ] );
    ("wave save", [ "wav_store" ]);
  ]

let table4 () =
  section "Table IV: phases in the execution path (slice = 2000 instr)";
  let t, dt = Lazy.force tquad_fine in
  Printf.printf "(tQUAD run %.2fs; %d slices total)\n" dt (Tq.total_slices t);
  print_string (R.phase_table t wfs_phase_groups);
  Printf.printf "\nautomatic phase identification (contiguous segments):\n";
  (* window must span several chunk periods so per-chunk kernel rotation is
     not mistaken for a phase change *)
  let total = Tq.total_slices t in
  let window = max 16 (total / 40) and min_len = max 32 (total / 20) in
  let phases = Ph.detect ~threshold:0.2 ~window ~gap:(max 2 (window / 6)) ~min_len t in
  print_string (R.detected_phases phases);
  Printf.printf
    "(the short initialization/load phases fall below the segmentation      resolution; the role-based table above recovers them)\n";
  (* the paper's multi-pass methodology: average the B/instr figures over
     several slice granularities *)
  Printf.printf "\nmulti-pass averages (slices 1000/2000/5000), read incl.:\n";
  let run ~slice_interval = fst (tquad_at slice_interval) in
  List.iter
    (fun kernel ->
      match
        ( Tq_tquad.Multi.avg_bpi ~run ~slices:[ 1_000; 2_000; 5_000 ] ~kernel
            ~metric:Tq.Read_incl,
          Tq_tquad.Multi.spread ~run ~slices:[ 1_000; 2_000; 5_000 ] ~kernel
            ~metric:Tq.Read_incl )
      with
      | Some avg, Some (lo, hi) ->
          Printf.printf "  %-24s %.4f B/ins (pass spread %.4f..%.4f)\n" kernel
            avg lo hi
      | _ -> ())
    [ "wav_store"; "fft1d"; "AudioIo_setFrames"; "DelayLine_processChunk" ];
  Printf.printf
    "paper shape check: 5 role phases; wave save spans the second half \
     (paper: 53%%); AudioIo_setFrames max MBW >> all others (paper: >50 vs \
     <=3 B/instr)\n"

(* ---------- Figures ---------- *)

let fig6 () =
  section "Figure 6: read bandwidth (stack incl.), top-10 kernels, 64 slices";
  let n = total_instr () in
  let interval = max 1 (n / 64) in
  let t, _ = tquad_at interval in
  let kernels = in_tquad t (top_kernels 10) in
  print_string
    (R.figure t ~metric:Tq.Read_incl ~kernels
       ~title:
         (Printf.sprintf "per-kernel read B/instr, slice = %d instructions"
            interval)
       ());
  print_string "\nCSV (first rows):\n";
  let csv = R.figure_csv t ~metric:Tq.Read_incl ~kernels in
  String.split_on_char '\n' csv
  |> List.filteri (fun i _ -> i < 4)
  |> List.iter (fun l -> Printf.printf "  %s\n" l)

let fig7 () =
  section "Figure 7: write bandwidth (stack excl.), last-10 kernels, first half";
  let n = total_instr () in
  let interval = max 1 (n / 256) in
  let t, _ = tquad_at interval in
  let kernels = in_tquad t (bottom_kernels 10) in
  print_string
    (R.figure t ~metric:Tq.Write_excl ~kernels
       ~max_slice:(Tq.total_slices t / 2)
       ~title:
         (Printf.sprintf
            "per-kernel write B/instr (stack excl.), slice = %d instructions, \
             second half cut (only wav_store active there)"
            interval)
       ())

(* ---------- instrumentation overhead (Section V-A) ---------- *)

let overhead () =
  section "Instrumentation slowdown (paper Section V-A: 37.2x-68.95x)";
  (* "native" = the reference implementation compiled to host code *)
  let _, native_dt = timed (fun () -> ignore (Tq_wfs.Reference.render scen)) in
  let m, plain_dt = timed (fun () -> Harness.run_plain scen) in
  let instr = Machine.instr_count m in
  let rows = ref [] in
  let add name dt = rows := (name, dt) :: !rows in
  add "native (reference, host code)" native_dt;
  add "VM uninstrumented" plain_dt;
  List.iter
    (fun slice ->
      let _, dt = tquad_at slice in
      add (Printf.sprintf "VM + tQUAD (slice %d)" slice) dt)
    [ 100_000; 2_000 ];
  let _, quad_dt = Lazy.force quad_run in
  add "VM + QUAD (byte-granular shadow)" quad_dt;
  let all = List.rev !rows in
  Printf.printf "%d simulated instructions\n" instr;
  List.iter
    (fun (name, dt) ->
      Printf.printf "  %-36s %8.3fs  %8.1fx native  %6.2fx VM\n" name dt
        (dt /. native_dt) (dt /. plain_dt))
    all;
  Printf.printf
    "paper analogue: instrumented-vs-native factors; the paper reports \
     37.2x-68.95x for tQUAD on Pin depending on slice and stack options\n"

(* ---------- ablations ---------- *)

let ablation () =
  section "Ablation: code cache (instrumentation cost structure)";
  let run_with_cache use_code_cache =
    let m = Machine.create ~vfs:(Harness.make_vfs scen) (Harness.compile scen) in
    let eng = Engine.create ~use_code_cache m in
    let _t = Tq.attach ~slice_interval:100_000 eng in
    let (), dt = timed (fun () -> Engine.run ~fuel:(Harness.fuel scen) eng) in
    (dt, Engine.stats eng)
  in
  let dt_on, st_on = run_with_cache true in
  let dt_off, st_off = run_with_cache false in
  Printf.printf
    "  cache on : %6.2fs  traces compiled %9d  lookups %9d  misses %9d\n" dt_on
    st_on.Engine.compiled_traces st_on.Engine.lookups st_on.Engine.misses;
  Printf.printf
    "  cache off: %6.2fs  traces compiled %9d  lookups %9d  misses %9d\n"
    dt_off st_off.Engine.compiled_traces st_off.Engine.lookups
    st_off.Engine.misses;
  Printf.printf "  speedup from code cache: %.2fx\n" (dt_off /. dt_on);

  section "Ablation: time-slice interval (detail vs cost; paper 5000..1e8)";
  Printf.printf "  %-10s %10s %10s %14s\n" "slice" "slices" "runtime"
    "wav_store act";
  List.iter
    (fun slice ->
      let t, dt = tquad_at slice in
      let act =
        match
          List.find_opt (fun r -> r.Symtab.name = "wav_store") (Tq.kernels t)
        with
        | Some r -> (Tq.totals t r).Tq.activity_span
        | None -> 0
      in
      Printf.printf "  %-10d %10d %9.2fs %14d\n" slice (Tq.total_slices t) dt
        act)
    [ 1_000; 5_000; 50_000; 500_000; 5_000_000 ];

  section "Ablation: compiler optimization level vs profile shape";
  (* the paper's targets are compiled without aggressive optimization; this
     shows how -O1 (constant folding, strength reduction, dead-load
     removal) shifts the measured profile *)
  let profile_at optimize =
    let m =
      Machine.create ~vfs:(Harness.make_vfs scen) (Harness.compile ~optimize scen)
    in
    let eng = Engine.create m in
    let g = G.attach ~period:2_000 eng in
    Engine.run ~fuel:(Harness.fuel scen) eng;
    (Machine.instr_count m, G.flat_profile g)
  in
  let n0, p0 = profile_at false in
  let n1, p1 = profile_at true in
  Printf.printf "  instructions: O0 %s, O1 %s (%.1f%% saved)\n"
    (Tq_util.Text_table.int_cell n0)
    (Tq_util.Text_table.int_cell n1)
    (100. *. (1. -. (float_of_int n1 /. float_of_int n0)));
  let top p =
    p
    |> List.filteri (fun i _ -> i < 5)
    |> List.map (fun (r : G.row) ->
           Printf.sprintf "%s %.1f%%" r.routine.Symtab.name r.pct_time)
    |> String.concat ", "
  in
  Printf.printf "  top-5 at O0: %s\n" (top p0);
  Printf.printf "  top-5 at O1: %s\n" (top p1);

  section "Ablation: phase-detection threshold sweep";
  let t, _ = Lazy.force tquad_fine in
  let total = Tq.total_slices t in
  let window = max 16 (total / 40) and min_len = max 32 (total / 20) in
  List.iter
    (fun threshold ->
      let phases = Ph.detect ~threshold ~window ~gap:(max 2 (window / 6)) ~min_len t in
      Printf.printf "  threshold %.2f -> %d phases (spans: %s)\n" threshold
        (List.length phases)
        (String.concat ", "
           (List.map
              (fun p -> Printf.sprintf "%d-%d" p.Ph.start_slice p.Ph.end_slice)
              phases)))
    [ 0.05; 0.15; 0.25; 0.4; 0.6 ]

(* ---------- extension: cache behaviour of the case study ---------------- *)

let cache () =
  section "Extension: per-kernel cache behaviour (vTune-style complement)";
  List.iter
    (fun (label, config) ->
      let eng = fresh_engine () in
      let c = Tq_prof.Cache_sim.attach ~config eng in
      let (), dt = timed (fun () -> Engine.run ~fuel:(Harness.fuel scen) eng) in
      let acc, miss = Tq_prof.Cache_sim.totals c in
      Printf.printf "  %-22s %9d accesses %8d misses (%5.2f%%)  [%.1fs]\n" label
        acc miss
        (100. *. Tq_prof.Cache_sim.miss_rate c)
        dt;
      if config == Tq_prof.Cache_sim.default_l1 then begin
        List.iteri
          (fun i (r : Tq_prof.Cache_sim.krow) ->
            if i < 6 then
              Printf.printf "      %-24s %9d misses %10d B to mem\n"
                r.routine.Symtab.name r.misses r.mem_bytes)
          (Tq_prof.Cache_sim.rows c)
      end)
    [
      ("L1 32KiB/8way/64B", Tq_prof.Cache_sim.default_l1);
      ( "small 4KiB/2way/64B",
        { Tq_prof.Cache_sim.size_bytes = 4096; line_bytes = 64; assoc = 2 } );
      ( "large 256KiB/8way/64B",
        { Tq_prof.Cache_sim.size_bytes = 256 * 1024; line_bytes = 64; assoc = 8 } );
    ];
  Printf.printf
    "the bandwidth-heavy kernels of Table IV are also the miss-heavy ones; \
     off-chip traffic = (misses + writebacks) x line\n"

(* ---------- extension: task clustering (the paper's future work) ------- *)

let clustering () =
  section "Extension: kernel clustering for task partitioning (paper Sec. VI)";
  let module C = Tq_cluster.Cluster in
  let q, _ = Lazy.force quad_run in
  let t, _ = Lazy.force tquad_fine in
  let helpers = [ "main"; "w16"; "w32"; "PrimarySource_update" ] in
  let comm = C.of_quad ~exclude:helpers q in
  let temporal = C.of_tquad ~exclude:helpers t in
  let common =
    Array.to_list comm.C.names
    |> List.filter (fun n -> Array.exists (( = ) n) temporal.C.names)
  in
  let comm = C.restrict comm ~keep:common in
  let temporal = C.restrict temporal ~keep:common in
  let show title aff =
    let clusters = C.agglomerate aff ~target:5 in
    Printf.printf "%s (intra-cluster affinity share %.3f):\n%s\n" title
      (C.quality aff clusters) (C.render clusters)
  in
  show "communication affinity (QUAD bindings)" comm;
  show "temporal affinity (tQUAD co-activity)" temporal;
  show "combined (0.6 communication + 0.4 temporal)"
    (C.combine ~alpha:0.6 comm temporal);
  Printf.printf
    "objective (paper): maximize intra-cluster communication while \
     minimizing inter-cluster communication\n"

(* ---------- extension: buffer sizing (footprint) ------------------------ *)

let footprint () =
  section
    "Extension: per-kernel buffer footprint (the paper's on-chip mapping \
     question)";
  let eng = fresh_engine () in
  let f = Tq_prof.Footprint.attach eng in
  Engine.run ~fuel:(Harness.fuel scen) eng;
  List.iteri
    (fun i (r, regions) ->
      if i < 10 then begin
        Printf.printf "  %s\n" r.Symtab.name;
        List.iter
          (fun (region, s) ->
            Printf.printf "    %-5s %10s B unique, %5d pages\n"
              (Tq_prof.Footprint.region_name region)
              (Tq_util.Text_table.int_cell s.Tq_prof.Footprint.unique_bytes)
              s.Tq_prof.Footprint.pages)
          regions
      end)
    (Tq_prof.Footprint.rows f);
  Printf.printf
    "paper analogue: fft1d's buffers are KB-scale (mappable on chip, Table \
     II discussion) while wav_store touches the entire output stream\n"

(* ---------- extension: static WCET vs dynamic observation --------------- *)

let wcet () =
  section
    "Extension: static WCET bound vs dynamic measurement (paper Sec. II)";
  (* The paper argues static WCET is over-pessimistic for complex targets,
     motivating dynamic analysis.  We can measure that pessimism directly:
     a sound static bound over the wfs binary vs the observed run. *)
  let tiny = Scenario.tiny in
  let prog = Harness.compile tiny in
  let m = Machine.create ~vfs:(Harness.make_vfs tiny) prog in
  Tq_vm.Executor.run ~fuel:(Harness.fuel tiny) m;
  let actual = Machine.instr_count m in
  let generic =
    max
      (tiny.Scenario.chunks * tiny.Scenario.frame * tiny.Scenario.speakers)
      (max (Scenario.input_samples tiny) tiny.Scenario.fft_n)
    + 2
  in
  let bounds name =
    List.map (fun _ -> generic) (Tq_wcet.Wcet.loops prog name)
  in
  (* expert flow facts: per-routine loop bounds in header (source) order,
     derived from the scenario parameters *)
  let n = tiny.Scenario.fft_n and f = tiny.Scenario.frame in
  let s = tiny.Scenario.speakers and c = tiny.Scenario.chunks in
  let taps = tiny.Scenario.taps and dl = tiny.Scenario.delay_len in
  let logn = Tq_wfs.Source.log2i n in
  let input = Scenario.input_samples tiny in
  let total_out = c * f * s in
  let tight name =
    match name with
    | "bitrev" -> [ logn + 1 ]
    | "perm" -> [ n + 1 ]
    | "fft1d" -> [ logn + 1; n + 1; (n / 2) + 1; n + 1 ]
    | "zeroRealVec" -> [ max dl (max f n) + 1 ]
    | "zeroCplxVec" -> [ n + 1 ]
    | "r2c" | "c2r" | "AudioIo_getFrames" -> [ f + 1 ]
    | "vsmult2d" -> [ 3 ]
    | "ldint" -> [ 9; 9 ]
    | "wav_load" -> [ input + 1 ]
    | "ffw" -> [ taps + 1; taps + 1; taps + 1 ]
    | "PrimarySource_update" | "AudioIo_setFrames" -> [ s + 1 ]
    | "Filter_process" -> [ n + 1; f + 1; n - f + 1; f + 1 ]
    | "DelayLine_processChunk" -> [ f + 1; s + 1; f + 1 ]
    | "wav_store" -> [ total_out + 1; (c * f) + 1; s + 1 ]
    | "main" -> [ n + 1; c + 1; n + 1 ]
    | "print_str" | "strlen" -> [ 64 ]
    | "memset" -> [ 1024 ]
    | other -> List.map (fun _ -> generic) (Tq_wcet.Wcet.loops prog other)
  in
  let show label bounds =
    match Tq_wcet.Wcet.analyze prog ~bounds "_start" with
    | bound ->
        Printf.printf "  %-36s %22s instructions  (%.1fx measured)\n" label
          (Tq_util.Text_table.int_cell bound)
          (float_of_int bound /. float_of_int actual)
    | exception Tq_wcet.Wcet.Analysis_error msg ->
        Printf.printf "  %s: analysis error: %s\n" label msg
  in
  Printf.printf "  %-36s %22s instructions\n" "measured run"
    (Tq_util.Text_table.int_cell actual);
  show (Printf.sprintf "naive bound (uniform %d)" generic) bounds;
  show "expert flow facts (tight bounds)" tight;
  Printf.printf
    "the gap is the paper's argument for measurement-based analysis on \
     complex codes: uniform static loop bounds balloon the estimate\n"

(* ---------- extension: a second application (generality) ---------------- *)

let generality () =
  section
    "Extension: second application (image pipeline) — profiler generality";
  let prog = Tq_apps.Apps.image_pipeline_program () in
  let m = Machine.create prog in
  let eng = Engine.create m in
  let g = G.attach ~period:2_000 eng in
  let t = Tq.attach ~slice_interval:5_000 eng in
  Engine.run ~fuel:100_000_000 eng;
  print_string (Machine.stdout_contents m);
  Printf.printf "(%s instructions)\n"
    (Tq_util.Text_table.int_cell (Machine.instr_count m));
  print_string (R.flat_profile (G.flat_profile g));
  let total = Tq.total_slices t in
  let window = max 8 (total / 40) and min_len = max 16 (total / 20) in
  let phases =
    Ph.detect ~threshold:0.2 ~window ~gap:(max 2 (window / 6)) ~min_len t
  in
  Printf.printf "automatic phases: %d (%s)\n" (List.length phases)
    (String.concat ", "
       (List.map
          (fun p ->
            let dominant =
              List.fold_left
                (fun acc k ->
                  match acc with
                  | Some (best : Ph.kernel_stats)
                    when best.Ph.activity >= k.Ph.activity ->
                      acc
                  | _ -> Some k)
                None p.Ph.kernels
            in
            match dominant with
            | Some k ->
                Printf.sprintf "%d-%d:%s" p.Ph.start_slice p.Ph.end_slice
                  k.Ph.routine.Symtab.name
            | None -> "empty")
          phases));
  Printf.printf
    "a float-heavy transform phase (dct8) bracketed by integer phases \
     (gen/sobel/rle): a profile shape very unlike wfs, measured by the same \
     tools\n"

(* ---------- record once / replay many (lib/trace) ----------------------- *)

let replay_bench () =
  section
    "Tool-parallel replay: one traced execution drives every tool \
     (one tool group per domain over a shared verified reader)";
  let tiny = Scenario.tiny in
  let prog = Harness.compile tiny in
  let fuel = Harness.fuel tiny in
  let fresh () =
    Engine.create (Machine.create ~vfs:(Harness.make_vfs tiny) prog)
  in
  let render_tquad = Tq_serve.Toolset.render_tquad ~slice:2_000 in
  let render_quad = Tq_serve.Toolset.render_quad in
  (* record once ... *)
  let path = Filename.temp_file "tquad_bench" ".trc" in
  let events, record_dt =
    timed (fun () ->
        bspan "record" (fun () -> Tq_trace.Probe.record ~fuel (fresh ()) ~path))
  in
  (* A fresh reader per timed run: the reader memoizes per-chunk CRC
     verification (verify-at-most-once), so reusing one would let every
     round after the first skip the CRC work being measured. *)
  let fresh_reader ?verify () = Tq_trace.Reader.load ?verify path in
  let r0 = fresh_reader () in
  Printf.printf
    "  recorded %s events in %s bytes (%.2fs; %d chunks)\n"
    (Tq_util.Text_table.int_cell events)
    (Tq_util.Text_table.int_cell (Tq_trace.Reader.byte_size r0))
    record_dt
    (Tq_trace.Reader.n_chunks r0);
  (* ... replay every tool from the one trace *)
  let jobs =
    List.map
      (fun name ->
        Result.get_ok (Tq_serve.Toolset.job ~prog ~slice:2_000 ~period:2_000 name))
      Tq_serve.Toolset.names
  in
  (* Interleaved rounds, best-of per side: one-shot wall clocks on these
     sub-second runs swing with machine load and accumulated GC state, so
     each round times live tquad, live quad, the sequential oracle and
     parallel replay back to back (drift hits all sides alike) behind a
     compacted heap, and each side keeps its fastest round. *)
  let rounds = 5 in
  let live_tquad = ref "" and tquad_dt = ref infinity in
  let live_quad = ref "" and quad_dt = ref infinity in
  let seq_results = ref [] and seq_dt = ref infinity in
  let results = ref [] and replay_dt = ref infinity in
  let noverify_dt = ref infinity in
  let stats = ref None in
  let best dt_ref v_ref (v, dt) =
    if dt < !dt_ref then begin
      dt_ref := dt;
      v_ref := v
    end
  in
  for _ = 1 to rounds do
    Gc.compact ();
    best tquad_dt live_tquad
      (timed (fun () ->
           let eng = fresh () in
           let t = Tq.attach ~slice_interval:2_000 eng in
           Engine.run ~fuel eng;
           render_tquad t));
    Gc.compact ();
    best quad_dt live_quad
      (timed (fun () ->
           let eng = fresh () in
           let q = Q.attach eng in
           Engine.run ~fuel eng;
           render_quad q));
    Gc.compact ();
    best seq_dt seq_results
      (timed (fun () -> Tq_trace.Replay.sequential (fresh_reader ()) jobs));
    Gc.compact ();
    best replay_dt results
      (timed (fun () ->
           Tq_trace.Replay.parallel
             ~stats:(fun s -> stats := Some s)
             (fresh_reader ()) jobs));
    Gc.compact ();
    best noverify_dt (ref [])
      (timed (fun () ->
           Tq_trace.Replay.parallel (fresh_reader ~verify:false ()) jobs))
  done;
  let live_tquad = !live_tquad and tquad_dt = !tquad_dt in
  let live_quad = !live_quad and quad_dt = !quad_dt in
  let seq_results = !seq_results and seq_dt = !seq_dt in
  let results = !results and replay_dt = !replay_dt in
  let noverify_dt = !noverify_dt in
  (* domain scaling: same jobs, 1..hardware domains, with the efficiency
     column (speedup over one domain, divided by the domain count) *)
  let domain_table =
    List.init (Domain.recommended_domain_count ()) (fun i ->
        let domains = i + 1 in
        let dt = ref infinity in
        for _ = 1 to 2 do
          Gc.compact ();
          best dt (ref [])
            (timed (fun () ->
                 Tq_trace.Replay.parallel ~domains (fresh_reader ()) jobs))
        done;
        (domains, !dt))
  in
  let one_domain_dt = List.assoc 1 domain_table in
  (* v4 redundancy suppression: record overhead, container shrink, and the
     replay effect of decoding each loop body once per repeat chunk *)
  let cpath = Filename.temp_file "tquad_bench" ".trc4" in
  let _, crecord_dt =
    timed (fun () ->
        bspan "record-compress" (fun () ->
            Tq_trace.Probe.record ~fuel ~compress:true (fresh ()) ~path:cpath))
  in
  let cr0 = Tq_trace.Reader.load cpath in
  let plain_bytes = Tq_trace.Reader.byte_size r0 in
  let comp_bytes = Tq_trace.Reader.byte_size cr0 in
  let byte_ratio = float_of_int plain_bytes /. float_of_int comp_bytes in
  let event_ratio =
    float_of_int (Tq_trace.Reader.n_events cr0)
    /. float_of_int (max 1 (Tq_trace.Reader.stored_events cr0))
  in
  let cseq_results = ref [] and cseq_dt = ref infinity in
  for _ = 1 to 3 do
    Gc.compact ();
    best cseq_dt cseq_results
      (timed (fun () ->
           Tq_trace.Replay.sequential (Tq_trace.Reader.load cpath) jobs))
  done;
  let compress_identical =
    List.for_all
      (fun (j : Tq_trace.Replay.job) ->
        match
          (List.assoc_opt j.name !cseq_results, List.assoc_opt j.name seq_results)
        with
        | Some (Ok a), Some (Ok b) -> a = b
        | _ -> false)
      jobs
  in
  let cseq_dt = !cseq_dt in
  Sys.remove cpath;
  Sys.remove path;
  let identical name live =
    match List.assoc_opt name results with
    | Some (Ok replayed) -> replayed = live
    | Some (Error _) | None -> false
  in
  (* the exactness bar: every parallel report byte-identical to the
     sequential oracle's *)
  let all_identical =
    List.for_all
      (fun (j : Tq_trace.Replay.job) ->
        match
          (List.assoc_opt j.name results, List.assoc_opt j.name seq_results)
        with
        | Some (Ok a), Some (Ok b) -> a = b
        | _ -> false)
      jobs
  in
  let failures =
    List.filter (fun (_, o) -> Result.is_error o) results |> List.length
  in
  let domains_used =
    match !stats with Some s -> s.Tq_trace.Replay.rs_domains | None -> 1
  in
  Printf.printf
    "  replayed %d tools (%d domain(s), %d hardware) in %.2fs\n"
    (List.length results) domains_used
    (Domain.recommended_domain_count ())
    replay_dt;
  Printf.printf "  sequential oracle (single pass, all tools): %.2fs\n" seq_dt;
  Printf.printf "  parallel reports byte-identical to sequential oracle: %b\n"
    all_identical;
  Printf.printf "  tquad replay byte-identical to live run: %b\n"
    (identical "tquad" live_tquad);
  Printf.printf "  quad  replay byte-identical to live run: %b\n"
    (identical "quad" live_quad);
  let two_runs = tquad_dt +. quad_dt in
  Printf.printf
    "  2 instrumented runs (tquad %.2fs + quad %.2fs) = %.2fs; replay of all \
     %d tools = %.2fs (%.2fx)\n"
    tquad_dt quad_dt two_runs (List.length jobs) replay_dt
    (two_runs /. replay_dt);
  Printf.printf
    "  amortization: record %.2fs once, then each further tool costs replay \
     only (vs %.2fs per instrumented run)\n"
    record_dt
    (two_runs /. 2.);
  let crc_overhead_pct =
    if noverify_dt > 0. then (replay_dt -. noverify_dt) /. noverify_dt *. 100.
    else 0.
  in
  Printf.printf
    "  CRC verification: replay %.3fs verified vs %.3fs unverified \
     (%+.2f%% overhead)\n"
    replay_dt noverify_dt crc_overhead_pct;
  List.iter
    (fun (domains, dt) ->
      let speedup = one_domain_dt /. dt in
      Printf.printf
        "  domains=%d: %.3fs (speedup %.2fx, efficiency %.2f; %.2fx vs \
         sequential)\n"
        domains dt speedup
        (speedup /. float_of_int domains)
        (seq_dt /. dt))
    domain_table;
  Printf.printf "  job failures during replay: %d\n" failures;
  Printf.printf
    "  compression (record --compress): %s -> %s bytes (%.2fx smaller, \
     %.2fx fewer stored events)\n"
    (Tq_util.Text_table.int_cell plain_bytes)
    (Tq_util.Text_table.int_cell comp_bytes)
    byte_ratio event_ratio;
  Printf.printf
    "  compressed record %.2fs (plain %.2fs); sequential replay %.3fs \
     compressed vs %.3fs plain (%.2fx)\n"
    crecord_dt record_dt cseq_dt seq_dt (seq_dt /. cseq_dt);
  Printf.printf "  compressed replay reports byte-identical: %b\n"
    compress_identical;
  json_emit "replay"
    [
      ("events", jint events);
      ("tools", jint (List.length jobs));
      ("record_s", jfloat record_dt);
      ("replay_sequential_s", jfloat seq_dt);
      ("replay_verified_s", jfloat replay_dt);
      ("replay_unverified_s", jfloat noverify_dt);
      ("crc_overhead_pct", jfloat crc_overhead_pct);
      ("speedup_vs_two_live_runs", jfloat (two_runs /. replay_dt));
      ("sharded_vs_sequential", jfloat (seq_dt /. replay_dt));
      ("domains_used", jint domains_used);
      ( "domain_table",
        Obs.Json.List
          (List.map
             (fun (domains, dt) ->
               let speedup = one_domain_dt /. dt in
               Obs.Json.Obj
                 [ ("domains", jint domains);
                   ("wall_s", jfloat dt);
                   ("speedup", jfloat speedup);
                   ("efficiency", jfloat (speedup /. float_of_int domains));
                   ("speedup_vs_sequential", jfloat (seq_dt /. dt)) ])
             domain_table) );
      ("tquad_identical", jstr (string_of_bool (identical "tquad" live_tquad)));
      ("quad_identical", jstr (string_of_bool (identical "quad" live_quad)));
      ("all_identical", jbool all_identical);
      ("job_failures", jint failures);
      ("compress_record_s", jfloat crecord_dt);
      ("compress_bytes", jint comp_bytes);
      ("plain_bytes", jint plain_bytes);
      ("compress_byte_ratio", jfloat byte_ratio);
      ("compress_event_ratio", jfloat event_ratio);
      ("compress_replay_sequential_s", jfloat cseq_dt);
      ("compress_replay_speedup", jfloat (seq_dt /. cseq_dt));
      ("compress_identical", jbool compress_identical);
    ]

(* ---------- execution engine: closure compilation + trace chaining ----- *)

let engine_bench () =
  section
    "Execution engine: closure-compiled traces + chaining vs the reference \
     interpreter";
  let scen = if !tiny_mode then Scenario.tiny else scen in
  Printf.printf "(workload: %s)\n" (Scenario.describe scen);
  let prog = Harness.compile scen in
  let fuel = Harness.fuel scen in
  let fresh_machine () = Machine.create ~vfs:(Harness.make_vfs scen) prog in
  (* best-of-N behind a compacted heap: sub-second wall clocks swing with
     machine load and GC state *)
  let best_of rounds f =
    let best = ref infinity and res = ref None in
    for _ = 1 to rounds do
      Gc.compact ();
      let r, dt = timed f in
      if dt < !best then begin
        best := dt;
        res := Some r
      end
    done;
    (Option.get !res, !best)
  in
  let rounds = if !tiny_mode then 5 else 2 in

  (* uninstrumented: plain fetch/dispatch interpreter vs threaded code *)
  let m_interp, interp_dt =
    best_of rounds (fun () ->
        let m = fresh_machine () in
        Tq_vm.Executor.run ~fuel m;
        m)
  in
  let n_instr = Machine.instr_count m_interp in
  let (m_closure, eng_plain), closure_dt =
    best_of rounds (fun () ->
        let m = fresh_machine () in
        let eng = Engine.create m in
        Engine.run ~fuel eng;
        (m, eng))
  in
  let arch_identical =
    Machine.exit_code m_interp = Machine.exit_code m_closure
    && Machine.stdout_contents m_interp = Machine.stdout_contents m_closure
    && Machine.instr_count m_interp = Machine.instr_count m_closure
  in
  let ips dt = float_of_int n_instr /. dt in
  let up_uninstr = interp_dt /. closure_dt in
  Printf.printf "uninstrumented (%s instructions):\n"
    (Tq_util.Text_table.int_cell n_instr);
  Printf.printf "  %-34s %8.3fs  %12.0f ins/s\n" "interpreter (Executor.run)"
    interp_dt (ips interp_dt);
  Printf.printf "  %-34s %8.3fs  %12.0f ins/s  %5.2fx\n"
    "closure engine (chained)" closure_dt (ips closure_dt) up_uninstr;
  Printf.printf "  architectural results identical: %b\n" arch_identical;

  (* instrumented: tQUAD attached, reference path vs chained closures *)
  let run_tquad ~use_code_cache () =
    let m = fresh_machine () in
    let eng = Engine.create ~use_code_cache m in
    let t = Tq.attach ~slice_interval:2_000 eng in
    Engine.run ~fuel eng;
    let report =
      R.figure t ~metric:Tq.Read_incl ~kernels:(Tq.kernels t) ~title:"fig" ()
    in
    (report, eng, m)
  in
  let (ref_report, _, _), ref_dt =
    best_of rounds (run_tquad ~use_code_cache:false)
  in
  let (chained_report, eng_instr, m_instr), chained_dt =
    best_of rounds (run_tquad ~use_code_cache:true)
  in
  let identical = ref_report = chained_report in
  let up_instr = ref_dt /. chained_dt in
  Printf.printf "instrumented (tQUAD, slice 2000):\n";
  Printf.printf "  %-34s %8.3fs  %12.0f ins/s\n"
    "reference (use_code_cache:false)" ref_dt (ips ref_dt);
  Printf.printf "  %-34s %8.3fs  %12.0f ins/s  %5.2fx\n"
    "chained closure engine" chained_dt (ips chained_dt) up_instr;
  Printf.printf "  tQUAD report byte-identical: %b\n" identical;

  (* engine + memory self-profile, tquad-selfprof style *)
  let st = Engine.stats eng_instr in
  let mc = Tq_vm.Memory.cache_stats (Machine.mem m_instr) in
  let pct a b = 100. *. float_of_int a /. float_of_int (max 1 (a + b)) in
  let chain_pct = 100. *. float_of_int st.Engine.chain_hits
                  /. float_of_int (max 1 st.Engine.lookups) in
  Printf.printf
    "selfprof: blocks=%d chain-hits=%d (%.1f%%) traces=%d closure-ins=%d \
     page-cache=%.1f%% (%d/%d)\n"
    st.Engine.lookups st.Engine.chain_hits chain_pct st.Engine.compiled_traces
    st.Engine.closure_instructions
    (pct mc.Tq_vm.Memory.hits mc.Tq_vm.Memory.misses)
    mc.Tq_vm.Memory.hits
    (mc.Tq_vm.Memory.hits + mc.Tq_vm.Memory.misses);
  ignore eng_plain;

  json_emit "engine"
    [
      ("experiment", jstr "engine");
      ("scenario", jstr (Scenario.describe scen));
      ("instructions", jint n_instr);
      ("uninstr_interp_s", jfloat interp_dt);
      ("uninstr_closure_s", jfloat closure_dt);
      ("uninstr_speedup", jfloat up_uninstr);
      ("uninstr_closure_ips", jfloat (ips closure_dt));
      ("arch_identical", jbool arch_identical);
      ("instr_reference_s", jfloat ref_dt);
      ("instr_chained_s", jfloat chained_dt);
      ("instr_speedup", jfloat up_instr);
      ("instr_chained_ips", jfloat (ips chained_dt));
      ("reports_identical", jbool identical);
      ("engine_lookups", jint st.Engine.lookups);
      ("engine_misses", jint st.Engine.misses);
      ("engine_chain_hits", jint st.Engine.chain_hits);
      ("engine_chain_hit_pct", jfloat chain_pct);
      ("engine_compiled_traces", jint st.Engine.compiled_traces);
      ("engine_closure_instructions", jint st.Engine.closure_instructions);
      ("mem_cache_hits", jint mc.Tq_vm.Memory.hits);
      ("mem_cache_misses", jint mc.Tq_vm.Memory.misses);
      ("mem_cache_hit_pct", jfloat (pct mc.Tq_vm.Memory.hits mc.Tq_vm.Memory.misses));
    ]

(* ---------- observability: disabled-path overhead ----------------------- *)

(* The lib/obs contract is near-zero cost when no manifest is requested: a
   disabled recorder's [with_span] is the wrapped call, a dead counter's
   [add] is one load and branch.  This experiment measures both — the
   pipeline wrapped in disabled spans vs bare, and the per-op cost of dead
   instruments — and emits [disabled_overhead_pct] for the CI guard. *)
let obs_bench () =
  section "Observability: disabled-path overhead (contract: < 2%)";
  let tiny = Scenario.tiny in
  let prog = Harness.compile tiny in
  let fuel = Harness.fuel tiny in
  let dis = Obs.Span.disabled in
  let dead = Obs.Metrics.counter Obs.Metrics.disabled ~unit_:"events" "bench.dead" in
  let run_bare () =
    let m = Machine.create ~vfs:(Harness.make_vfs tiny) prog in
    let eng = Engine.create m in
    Engine.run ~fuel eng
  in
  (* same pipeline wrapped the way the CLI wraps it without --metrics:
     disabled spans around the stages, a dead counter poke per stage *)
  let run_wrapped () =
    Obs.Span.with_span dis "run" (fun () ->
        Obs.Span.with_span dis "create" (fun () ->
            Obs.Metrics.add dead 1;
            let m = Machine.create ~vfs:(Harness.make_vfs tiny) prog in
            Engine.create m)
        |> fun eng ->
        Obs.Span.with_span dis "execute" (fun () ->
            Obs.Metrics.add dead 1;
            Engine.run ~fuel eng))
  in
  (* interleaved best-of rounds behind a compacted heap: machine-load drift
     hits both sides alike, and each side keeps its fastest round *)
  let rounds = 7 in
  let bare_dt = ref infinity and wrapped_dt = ref infinity in
  for _ = 1 to rounds do
    Gc.compact ();
    let (), dt = timed run_bare in
    if dt < !bare_dt then bare_dt := dt;
    Gc.compact ();
    let (), dt = timed run_wrapped in
    if dt < !wrapped_dt then wrapped_dt := dt
  done;
  let bare_dt = !bare_dt and wrapped_dt = !wrapped_dt in
  let overhead_pct = (wrapped_dt -. bare_dt) /. bare_dt *. 100. in
  Printf.printf "  bare pipeline    %8.4fs\n" bare_dt;
  Printf.printf "  disabled-obs     %8.4fs  (%+.3f%%)\n" wrapped_dt overhead_pct;
  (* per-op cost of dead instruments *)
  let ops = 10_000_000 in
  let (), span_dt =
    timed (fun () ->
        for _ = 1 to ops do
          Obs.Span.with_span dis "noop" (fun () -> ())
        done)
  in
  let (), ctr_dt =
    timed (fun () ->
        for _ = 1 to ops do
          Obs.Metrics.add dead 1
        done)
  in
  let ns dt = dt /. float_of_int ops *. 1e9 in
  Printf.printf "  disabled with_span %6.2f ns/op, disabled counter add %6.2f ns/op (%d ops)\n"
    (ns span_dt) (ns ctr_dt) ops;
  Printf.printf
    "  dead instruments stay dead: counter value = %d after %d adds\n"
    (Obs.Metrics.counter_value dead) ops;
  json_emit "obs"
    [
      ("bare_s", jfloat bare_dt);
      ("wrapped_s", jfloat wrapped_dt);
      ("disabled_overhead_pct", jfloat overhead_pct);
      ("disabled_span_ns", jfloat (ns span_dt));
      ("disabled_counter_ns", jfloat (ns ctr_dt));
      ("counter_stayed_zero", jbool (Obs.Metrics.counter_value dead = 0));
    ]

(* ---------- serve daemon: concurrent clients, cache, admission -------- *)

let serve_bench () =
  section
    "Serve daemon: concurrent clients, chunk cache, admission control";
  let module Sv = Tq_serve.Server in
  let module Cl = Tq_serve.Client in
  (* a self-terminating MiniC workload (recording has no fuel cutoff):
     [rounds] passes of a fill/reduce pair over a 512-word buffer, sized so
     the decoded trace fits the daemon's cache but spans many chunks *)
  let rounds = if !tiny_mode then 20 else 80 in
  let src =
    Printf.sprintf
      "int buf[512];\n\
       void fill(int k) { for (int i = 0; i < 512; i++) buf[i] = i + k; }\n\
       int total() { int s; s = 0;\n\
      \              for (int i = 0; i < 512; i++) s += buf[i];\n\
      \              return s; }\n\
       int main() { int t; t = 0;\n\
      \             for (int r = 0; r < %d; r++) { fill(r); t += total(); }\n\
      \             return t - t; }"
      rounds
  in
  let prog =
    Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"bench" src ]
  in
  (* one recording, shared (by idempotent upload) across every client;
     small chunks so the LRU sees a meaningful working set *)
  let path = Filename.temp_file "tquad_serve_bench" ".trc" in
  let events =
    let eng = Engine.create (Machine.create prog) in
    Tq_trace.Probe.record ~chunk_bytes:(64 * 1024) eng ~path
  in
  let trace =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  let n_chunks = Tq_trace.Reader.n_chunks (Tq_trace.Reader.of_string trace) in
  let program = Tq_vm.Objfile.encode prog in
  Printf.printf "  workload: %d events, %d chunks, %d trace bytes\n" events
    n_chunks (String.length trace);
  let tmp_socket () =
    let p = Filename.temp_file "tquad_serve_bench" ".sock" in
    Sys.remove p;
    p
  in
  let start_server cfg =
    let ready_m = Mutex.create () and ready_c = Condition.create () in
    let ready = ref false in
    let th =
      Thread.create
        (fun () ->
          Sv.run ~handle_signals:false
            ~on_ready:(fun () ->
              Mutex.lock ready_m;
              ready := true;
              Condition.signal ready_c;
              Mutex.unlock ready_m)
            cfg)
        ()
    in
    Mutex.lock ready_m;
    while not !ready do
      Condition.wait ready_c ready_m
    done;
    Mutex.unlock ready_m;
    th
  in
  let num j k =
    match Obs.Json.member k j with
    | Some (Obs.Json.Int i) -> float_of_int i
    | Some (Obs.Json.Float f) -> f
    | _ -> nan
  in
  let sub j k =
    match Obs.Json.member k j with Some o -> o | None -> Obs.Json.Obj []
  in
  (* phase 1: N clients hammer one daemon with full-toolset replays; the
     first pass decodes every chunk, later passes should hit the cache *)
  let clients = 4 and cycles = if !tiny_mode then 2 else 3 in
  let socket = tmp_socket () in
  let cfg =
    {
      (Sv.default ~socket_path:socket) with
      Sv.workers = 2;
      cache_bytes = 512 * 1024 * 1024;
      rate = 10_000.;
      burst = 10_000;
      max_traces = 4;
    }
  in
  let th = start_server cfg in
  let errs_m = Mutex.create () in
  let errs = ref [] and jobs_ok = ref 0 in
  let fail msg = Mutex.protect errs_m (fun () -> errs := msg :: !errs) in
  let client_loop i () =
    match Cl.connect socket with
    | Error e -> fail (Printf.sprintf "client %d connect: %s" i e.Cl.reason)
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Cl.close c)
          (fun () ->
            match Cl.upload ~name:"bench" ~program ~trace c with
            | Error e ->
                fail (Printf.sprintf "client %d upload: %s" i e.Cl.reason)
            | Ok id ->
                for cycle = 1 to cycles do
                  match Cl.replay ~slice:2_000 ~period:2_000 c id with
                  | Error e ->
                      fail
                        (Printf.sprintf "client %d cycle %d replay: %s" i
                           cycle e.Cl.reason)
                  | Ok jid -> (
                      match Cl.report ~wait:true c jid with
                      | Error e ->
                          fail
                            (Printf.sprintf "client %d job %d report: %s" i
                               jid e.Cl.reason)
                      | Ok r ->
                          if r.Cl.failures <> [] then
                            fail
                              (Printf.sprintf "client %d job %d tool failures"
                                 i jid)
                          else
                            Mutex.protect errs_m (fun () -> incr jobs_ok))
                done)
  in
  let (), phase1_dt =
    timed (fun () ->
        let ths =
          List.init clients (fun i -> Thread.create (client_loop i) ())
        in
        List.iter Thread.join ths)
  in
  let control = Result.get_ok (Cl.connect socket) in
  let stats = Result.get_ok (Cl.stats control) in
  ignore (Cl.shutdown control);
  Cl.close control;
  Thread.join th;
  let queue = sub stats "queue"
  and cache = sub stats "cache"
  and latency = sub stats "latency" in
  let hit_rate = num cache "hit_rate" in
  let completed = int_of_float (num queue "completed")
  and failed = int_of_float (num queue "failed_jobs") in
  Printf.printf
    "  phase 1: %d clients x %d replay cycles (all tools) in %.2fs\n" clients
    cycles phase1_dt;
  Printf.printf "  jobs: %d completed, %d failed (%d report round-trips ok)\n"
    completed failed !jobs_ok;
  Printf.printf
    "  cache: %.0f hits / %.0f misses / %.0f evictions, hit rate %.3f\n"
    (num cache "hits") (num cache "misses") (num cache "evictions") hit_rate;
  Printf.printf "  queue: depth %.0f, peak %.0f, workers %.0f\n"
    (num queue "depth") (num queue "peak") (num queue "workers");
  Printf.printf "  job latency: p50 %.4fs, p99 %.4fs, max %.4fs (n=%.0f)\n"
    (num latency "p50_s") (num latency "p99_s") (num latency "max_s")
    (num latency "count");
  List.iter (fun e -> Printf.printf "  CLIENT ERROR: %s\n" e) !errs;
  (* phase 2: a second daemon with a starved token bucket — a burst of
     replays must be refused with the typed busy error, not queued *)
  let socket2 = tmp_socket () in
  let cfg2 =
    {
      (Sv.default ~socket_path:socket2) with
      Sv.workers = 1;
      rate = 0.001;
      burst = 2;
    }
  in
  let th2 = start_server cfg2 in
  let c2 = Result.get_ok (Cl.connect socket2) in
  let id2 = Result.get_ok (Cl.upload ~program ~trace c2) in
  let burst_requests = 8 in
  let admitted = ref 0 and busy = ref 0 in
  for _ = 1 to burst_requests do
    match Cl.replay ~tools:[ "gprof" ] ~slice:2_000 ~period:2_000 c2 id2 with
    | Ok _ -> incr admitted
    | Error e when e.Cl.kind = Tq_serve.Protocol.busy -> incr busy
    | Error e -> fail ("phase 2 replay: " ^ e.Cl.reason)
  done;
  let stats2 = Result.get_ok (Cl.stats c2) in
  let busy_rejections = int_of_float (num stats2 "busy_rejections") in
  ignore (Cl.shutdown c2);
  Cl.close c2;
  Thread.join th2;
  Printf.printf
    "  phase 2: burst of %d replays at rate 0.001/s: %d admitted, %d busy \
     (server counted %d rejections)\n"
    burst_requests !admitted !busy busy_rejections;
  (* phase 3: a wire-level chaos storm — seeded malformed-frame strikes
     against a third daemon with tight frame deadlines; the server must
     answer every strike (never go unreachable or silent) and still serve a
     clean full-toolset replay afterwards *)
  let module W = Tq_faultgen.Wire in
  let socket3 = tmp_socket () in
  let cfg3 =
    {
      (Sv.default ~socket_path:socket3) with
      Sv.workers = 1;
      frame_timeout_s = 0.2;
      idle_timeout_s = 5.;
    }
  in
  let th3 = start_server cfg3 in
  let chaos_rounds = if !tiny_mode then 16 else 64 in
  let storm_events, storm_dt =
    timed (fun () ->
        W.storm ~socket:socket3 ~seed:42 ~rounds:chaos_rounds ())
  in
  let count p =
    List.length (List.filter (fun e -> p e.W.verdict) storm_events)
  in
  let unreachable =
    count (function W.Unreachable _ -> true | _ -> false)
  in
  let chaos_rejected = count (function W.Rejected _ -> true | _ -> false) in
  let chaos_closed = count (function W.Closed -> true | _ -> false) in
  let chaos_silent = count (function W.Silent -> true | _ -> false) in
  let chaos_accepted = count (function W.Accepted -> true | _ -> false) in
  let c3 = Result.get_ok (Cl.connect socket3) in
  let id3 = Result.get_ok (Cl.upload ~program ~trace c3) in
  let healthy_after_storm =
    match Cl.replay ~slice:2_000 ~period:2_000 c3 id3 with
    | Error e ->
        fail ("phase 3 replay: " ^ e.Cl.reason);
        false
    | Ok jid -> (
        match Cl.report ~wait:true c3 jid with
        | Ok r -> r.Cl.failures = []
        | Error e ->
            fail ("phase 3 report: " ^ e.Cl.reason);
            false)
  in
  let stats3 = Result.get_ok (Cl.stats c3) in
  let reaped = int_of_float (num stats3 "reaped_connections") in
  ignore (Cl.shutdown c3);
  Cl.close c3;
  Thread.join th3;
  Printf.printf
    "  phase 3: %d chaos strikes in %.2fs: %d rejected, %d closed, %d \
     accepted, %d silent, %d unreachable (%d reaped)\n"
    chaos_rounds storm_dt chaos_rejected chaos_closed chaos_accepted
    chaos_silent unreachable reaped;
  Printf.printf "  post-storm replay healthy: %b\n" healthy_after_storm;
  let ok =
    !errs = [] && failed = 0 && hit_rate > 0.5 && !busy > 0
    && !jobs_ok = clients * cycles
    && unreachable = 0 && chaos_silent = 0 && healthy_after_storm
  in
  Printf.printf
    "  acceptance (no failures, hit rate > 0.5, busy > 0, storm survived): \
     %b\n"
    ok;
  json_emit "serve"
    [
      ("events", jint events);
      ("chunks", jint n_chunks);
      ("clients", jint clients);
      ("cycles_per_client", jint cycles);
      ("phase1_wall_s", jfloat phase1_dt);
      ("jobs_completed", jint completed);
      ("jobs_failed", jint failed);
      ("client_errors", jint (List.length !errs));
      ("cache_hits", jint (int_of_float (num cache "hits")));
      ("cache_misses", jint (int_of_float (num cache "misses")));
      ("cache_evictions", jint (int_of_float (num cache "evictions")));
      ("cache_hit_rate", jfloat hit_rate);
      ("queue_depth", jint (int_of_float (num queue "depth")));
      ("queue_peak", jint (int_of_float (num queue "peak")));
      ("latency_p50_s", jfloat (num latency "p50_s"));
      ("latency_p99_s", jfloat (num latency "p99_s"));
      ("latency_max_s", jfloat (num latency "max_s"));
      ("burst_requests", jint burst_requests);
      ("burst_admitted", jint !admitted);
      ("burst_busy", jint !busy);
      ("busy_rejections", jint busy_rejections);
      ("chaos_rounds", jint chaos_rounds);
      ("chaos_wall_s", jfloat storm_dt);
      ("chaos_rejected", jint chaos_rejected);
      ("chaos_closed", jint chaos_closed);
      ("chaos_accepted", jint chaos_accepted);
      ("chaos_silent", jint chaos_silent);
      ("chaos_unreachable", jint unreachable);
      ("chaos_reaped_connections", jint reaped);
      ("chaos_healthy_after", jbool healthy_after_storm);
      ("acceptance_ok", jbool ok);
    ]

(* ---------- bechamel micro-benchmarks (one Test.make per experiment) ---- *)

let bechamel () =
  section "Bechamel micro-benchmarks (tiny scenario, one test per experiment)";
  let open Bechamel in
  let tiny = Scenario.tiny in
  let tiny_engine () =
    let m = Machine.create ~vfs:(Harness.make_vfs tiny) (Harness.compile tiny) in
    Engine.create m
  in
  let run_gprof () =
    let eng = tiny_engine () in
    let g = G.attach ~period:2_000 eng in
    Engine.run ~fuel:(Harness.fuel tiny) eng;
    ignore (G.flat_profile g)
  in
  let run_quad () =
    let eng = tiny_engine () in
    let q = Q.attach eng in
    Engine.run ~fuel:(Harness.fuel tiny) eng;
    ignore (Q.rows q)
  in
  let run_tquad_table4 () =
    let eng = tiny_engine () in
    let t = Tq.attach ~slice_interval:2_000 eng in
    Engine.run ~fuel:(Harness.fuel tiny) eng;
    ignore (R.phase_table t wfs_phase_groups)
  in
  let run_tquad_fig metric =
    let eng = tiny_engine () in
    let t = Tq.attach ~slice_interval:10_000 eng in
    Engine.run ~fuel:(Harness.fuel tiny) eng;
    let kernels = Tq.kernels t in
    ignore (R.figure t ~metric ~kernels ~title:"fig" ())
  in
  let tests =
    [
      Test.make ~name:"table1_gprof_flat_profile" (Staged.stage run_gprof);
      Test.make ~name:"table2_quad_bindings" (Staged.stage run_quad);
      Test.make ~name:"table3_instrumented_profile"
        (Staged.stage (fun () ->
             run_gprof ();
             run_tquad_table4 ()));
      Test.make ~name:"table4_phases" (Staged.stage run_tquad_table4);
      Test.make ~name:"fig6_read_incl"
        (Staged.stage (fun () -> run_tquad_fig Tq.Read_incl));
      Test.make ~name:"fig7_write_excl"
        (Staged.stage (fun () -> run_tquad_fig Tq.Write_excl));
      Test.make ~name:"overhead_plain_vm"
        (Staged.stage (fun () ->
             let m =
               Machine.create ~vfs:(Harness.make_vfs tiny)
                 (Harness.compile tiny)
             in
             Tq_vm.Executor.run ~fuel:(Harness.fuel tiny) m));
    ]
  in
  let test = Test.make_grouped ~name:"experiments" ~fmt:"%s %s" tests in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~stabilize:false ()
    in
    let raw = Benchmark.all cfg instances test in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw) instances
    in
    Analyze.merge ols instances results
  in
  let results = benchmark () in
  Hashtbl.iter
    (fun label tbl ->
      Printf.printf "  measure: %s\n" label;
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      List.iter
        (fun (name, ols) ->
          let est =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> Printf.sprintf "%12.0f ns/run" e
            | _ -> "estimate unavailable"
          in
          Printf.printf "    %-44s %s\n" name est)
        rows)
    results

(* ---------- static bandwidth model: heuristic vs dataflow --------------- *)

(* For every application: run once under tQUAD, then rank the kernels with
   both static estimators and report each one's Kendall tau against the
   measured per-kernel bytes.  The dataflow model must never rank worse
   than the flat heuristic — [tau_regressions] counts the apps where it
   does, and CI fails when it is non-zero. *)
let check_bench () =
  section "Static bandwidth model: heuristic vs dataflow rank agreement";
  let cscen = if !tiny_mode then Scenario.tiny else scen in
  let apps =
    [
      ( "wfs",
        (fun () -> Harness.compile cscen),
        (fun () -> Some (Harness.make_vfs cscen)),
        Some (Harness.fuel cscen) );
      ( "image-pipeline",
        (fun () -> Tq_apps.Apps.image_pipeline_program ()),
        (fun () -> None),
        Some 100_000_000 );
      ( "pointer-chase",
        (fun () -> Tq_apps.Apps.pointer_chase_program ()),
        (fun () -> None),
        Some 100_000_000 );
    ]
  in
  let module E = Tq_staticcheck.Estimate in
  let regressions = ref 0 in
  let entries =
    List.map
      (fun (name, prog_of, vfs_of, fuel) ->
        let prog = prog_of () in
        let m =
          match vfs_of () with
          | Some vfs -> Machine.create ~vfs prog
          | None -> Machine.create prog
        in
        let eng = Engine.create m in
        let t = Tq.attach ~slice_interval:2_000 eng in
        let (), run_dt =
          timed (fun () ->
              bspan ~attrs:(fun () -> [ ("app", 0) ]) ("run:" ^ name)
                (fun () -> Engine.run ?fuel eng))
        in
        let kernels = Tq.kernels t in
        let dynamic r =
          let tot = Tq.totals t r in
          float_of_int (tot.Tq.read_incl + tot.Tq.write_incl)
        in
        let tau_of rows =
          let compared =
            List.filter_map
              (fun (row : E.row) ->
                List.find_opt
                  (fun k -> k.Symtab.id = row.E.routine.Symtab.id)
                  kernels
                |> Option.map (fun k -> (E.bytes row, dynamic k)))
              rows
          in
          let srank = R.rank_of (List.map fst compared)
          and drank = R.rank_of (List.map snd compared) in
          (R.kendall_tau srank drank, List.length compared)
        in
        let rows_h, dt_h =
          timed (fun () -> E.per_kernel ~mode:E.Heuristic prog)
        in
        let rows_d, dt_d =
          timed (fun () -> E.per_kernel ~mode:E.Dataflow prog)
        in
        let tau_h, nk = tau_of rows_h in
        let tau_d, _ = tau_of rows_d in
        if tau_d < tau_h then incr regressions;
        Printf.printf
          "  %-16s %2d kernels  tau heuristic %+.2f (%.3fs)  tau dataflow \
           %+.2f (%.3fs)  run %.2fs%s\n"
          name nk tau_h dt_h tau_d dt_d run_dt
          (if tau_d < tau_h then "  <-- REGRESSION" else "");
        Obs.Json.Obj
          [
            ("app", jstr name);
            ("kernels", jint nk);
            ("tau_heuristic", jfloat tau_h);
            ("tau_dataflow", jfloat tau_d);
            ("static_heuristic_s", jfloat dt_h);
            ("static_dataflow_s", jfloat dt_d);
            ("run_s", jfloat run_dt);
          ])
      apps
  in
  Printf.printf
    "  dataflow trip counts and stride classes must not rank kernels worse \
     than the flat heuristic: %d regression(s)\n"
    !regressions;
  json_emit "check"
    [ ("apps", Obs.Json.List entries); ("tau_regressions", jint !regressions) ]

(* ---------- driver ---------- *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("fig6", fig6);
    ("fig7", fig7);
    ("overhead", overhead);
    ("ablation", ablation);
    ("clustering", clustering);
    ("cache", cache);
    ("wcet", wcet);
    ("generality", generality);
    ("footprint", footprint);
    ("replay", replay_bench);
    ("engine", engine_bench);
    ("obs", obs_bench);
    ("serve", serve_bench);
    ("check", check_bench);
    ("bechamel", bechamel);
  ]

let () =
  let args =
    List.tl (Array.to_list Sys.argv)
    |> List.filter (fun a ->
           match a with
           | "--json" ->
               json_mode := true;
               false
           | "--tiny" ->
               tiny_mode := true;
               false
           | _ -> true)
  in
  let selected =
    if args = [] then List.map fst experiments
    else begin
      List.iter
        (fun a ->
          if not (List.mem_assoc a experiments) then begin
            Printf.eprintf "unknown experiment %s; available: %s\n" a
              (String.concat " " (List.map fst experiments));
            exit 2
          end)
        args;
      args
    end
  in
  Printf.printf "tQUAD reproduction benchmark harness\n";
  Printf.printf "scenario: %s\n" (Scenario.describe scen);
  List.iter
    (fun name ->
      (* fresh recorder per experiment; the manifest is emitted only after
         the experiment's own span closed, so it carries the full tree *)
      if !json_mode then begin
        obs := Obs.Span.create ();
        obs_metrics := Obs.Metrics.create ()
      end;
      bspan name (List.assoc name experiments);
      flush_manifests ())
    selected
