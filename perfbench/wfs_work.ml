(* The two wfs workloads on the [default] scenario: a live profiled run
   (wfs-live), and a recording into a compressed v4 container followed by
   a six-tool replay (wfs-v4), checked against a plain v3 one. *)

open Common
open Layers

(* ---------- repeated operations ---------- *)

type 'a phase = {
  walls : float list;  (** one per successful measured operation *)
  first : (string * string) list option;  (** the first operation's reports *)
  values : 'a list;  (** one per successful operation, in order *)
}

(* Run [op] until [seconds] have passed.  Each time, compact the heap,
   then run [before] (a fixed amount of work, so every operation starts
   from the same memory state) and sample the machine's speed.  [op]
   returns its value, its wall and its reports; every operation's reports
   must match the first's. *)
let phase r ~seconds ~before op =
  let first = ref None and walls = ref [] and values = ref [] in
  for_seconds seconds (fun () ->
      Gc.compact ();
      before ();
      Calib.sample ();
      match
        attempt r (fun () ->
            let v, dt, reports = op () in
            (match !first with
            | None -> first := Some reports
            | Some f -> same_reports ~what:"repeated operation" f reports);
            (v, dt))
      with
      | Some (v, dt) ->
          walls := dt :: !walls;
          values := v :: !values
      | None -> ());
  { walls = List.rev !walls; first = !first; values = List.rev !values }

(* The measured phase.  A traced run measures it for half the time
   untraced and half traced; the difference of the median walls is the
   tracing overhead. *)
let measure r ~traced ~seconds ~before spans op =
  reset_peak_rss ();
  if not traced then phase r ~seconds ~before (op spans)
  else begin
    let untraced = phase r ~seconds:(seconds /. 2.) ~before (op off) in
    let p = phase r ~seconds:(seconds /. 2.) ~before (op spans) in
    let u = median untraced.walls and t = median p.walls in
    metric r "trace_overhead_pct" (100. *. (t -. u) /. u);
    p
  end

let e2e r ~setups p =
  Printf.printf "operations measured: %d, walls (s): %s\n" (List.length p.walls)
    (String.concat " " (List.map (Printf.sprintf "%.3f") p.walls));
  metric r "peak_rss_mb" (peak_rss_mb ());
  scaled_times r ~setup_s:(median !setups) ~profile_s:(median p.walls)

(* Each workload runs one checked, untimed operation before measuring: it
   warms the process up and makes the reports the measured ones must
   equal. *)
let agree r ~what reference p =
  match (reference, p.first) with
  | Some reference, Some first ->
      post_check r (fun () -> same_reports ~what first reference)
  | _ -> ()

(* [unattributed_pct]: the share of the measured operation's median wall
   that the reported per-layer figures [covered] do not account for, in
   either direction (a negative gap means the layers add up to more than
   the operation, i.e. they do not compose). *)
let attribution r ~wall ~covered =
  Printf.printf "layer accounting: wall %.4f s, layers %.4f s, gap %+.4f s\n" wall
    covered (wall -. covered);
  metric r "unattributed_pct" (100. *. Float.abs (wall -. covered) /. wall)

(* Compiling wfs takes milliseconds, and on a busy host the wall of so
   short a task depends on the moment it runs.  So a run sets up
   [setup_reps] times at the start and [setup_between] more times before
   every measured operation, and [setup_s] is the median over them all,
   which spans the whole run. *)
let setup_reps = 31

let setup_between = 5

(* [minic.compile_s] from the initial, traced set-ups. *)
let compile_metric r spans =
  metric r "minic.compile_s"
    (Spans.total spans ~name:"minic.compile" /. float_of_int setup_reps)

(* The compiled wfs and the set-up walls so far; [more] sets up
   [setup_between] more times, untraced, and adds their walls. *)
let setup spans seed =
  let w, walls =
    repeated_setup ~reps:setup_reps (fun () -> setup_wfs spans Scenario.default seed)
  in
  let setups = ref walls in
  let more () =
    for _ = 1 to setup_between do
      let _, dt = timed (fun () -> setup_wfs off Scenario.default seed) in
      setups := dt :: !setups
    done
  in
  (w, setups, more)

(* ---------- wfs-live ---------- *)

(* One engine with tQUAD (slice 2000) and QUAD attached, run to exit; the
   wall runs from [Engine.create] to both reports rendered.  The value is
   the engine's counters and the time the two renders took. *)
let live_op spans w =
  let m = machine w in
  let (tq, q, eng, render_s), wall =
    span_timed spans "op" (fun () ->
        let eng = Spans.with_ spans "engine.create" (fun () -> Engine.create m) in
        let tq, q =
          Spans.with_ spans "tools.attach" (fun () ->
              let tq = Tquad.attach ~slice_interval:slice eng in
              (tq, Quad.attach eng))
        in
        Spans.with_ spans "engine.run" (fun () -> Engine.run ~fuel:w.fuel eng);
        let (tq, q), render_s =
          timed (fun () ->
              let tq =
                Spans.with_ spans "tquad.render" (fun () -> Toolset.render_tquad ~slice tq)
              in
              (tq, Spans.with_ spans "quad.render" (fun () -> Toolset.render_quad q)))
        in
        (tq, q, eng, render_s))
  in
  check_wfs_output w m;
  ((snapshot eng m, render_s), wall, [ ("tquad", tq); ("quad", q) ])

let live ~traced ~seed ~seconds r spans =
  let w, setups, more = setup spans seed in
  let reference = attempt r (fun () -> let _, _, reports = live_op off w in reports) in
  let p = measure r ~traced ~seconds ~before:more spans (fun spans () -> live_op spans w) in
  e2e r ~setups p;
  agree r ~what:"repeated operation" reference p;
  if traced then begin
    compile_metric r spans;
    (match List.rev p.values with (s, _) :: _ -> engine_stats r s | [] -> ());
    let render_s = median (List.map snd p.values) in
    metric r "report.render_s" render_s;
    let dbi_s, probe_s = dbi_and_probe spans r w in
    let tquad_s, quad_s = live_tools spans r w ~probe_s in
    (* bare engine + event synthesis + each tool's callbacks + renders *)
    attribution r ~wall:(median p.walls)
      ~covered:(dbi_s +. (probe_s -. dbi_s) +. tquad_s +. quad_s +. render_s)
  end

(* ---------- wfs-v4 ---------- *)

type recorded = {
  record_s : float;
  load_s : float;
  replay_s : float;
  bytes : int;
  stats : Replay.run_stats;
  engine : engine_snapshot;
}

(* Record the run into [path], then replay all six tools from a fresh
   reader through [Replay.parallel] at its default domains and shards.
   The wall is [record_s + replay_s]: [Probe.record], and [Reader.load]
   to the six rendered reports. *)
let record_replay spans w ~compress ~path =
  let m = machine w in
  let (eng, record_s, load_s, replay_s, results, stats), wall =
    span_timed spans "op" (fun () ->
        let eng, record_s =
          span_timed spans "probe.record" (fun () ->
              let eng = Engine.create m in
              ignore (Probe.record ~fuel:w.fuel ~compress eng ~path : int);
              eng)
        in
        let (load_s, results, stats), replay_s =
          timed (fun () ->
              let reader, load_s = span_timed spans "reader.load" (fun () -> Reader.load path) in
              let stats = ref None in
              let results =
                Spans.with_ spans "replay.parallel" (fun () ->
                    Replay.parallel
                      ~stats:(fun s -> stats := Some s)
                      reader (jobs w.prog))
              in
              (load_s, results, !stats))
        in
        (eng, record_s, load_s, replay_s, results, stats))
  in
  check_wfs_output w m;
  let reports = reports_of results in
  check (List.length reports = 6) "replay returned %d reports" (List.length reports);
  let stats = Option.get stats in
  ( { record_s; load_s; replay_s; bytes = file_size path; stats; engine = snapshot eng m },
    wall,
    reports )

(* [squash.s]: plain and compressed recordings of the same run, back to
   back [reps] times; the difference of their median walls. *)
let squash_cost spans r w ~path =
  let plain = ref [] and packed = ref [] in
  for _ = 1 to reps do
    List.iter
      (fun (compress, walls) ->
        let m = machine w in
        let eng = Engine.create m in
        let _, dt =
          span_timed spans
            (if compress then "record.compressed" else "record.plain")
            (fun () -> Probe.record ~fuel:w.fuel ~compress eng ~path)
        in
        check_wfs_output w m;
        walls := dt :: !walls)
      [ (false, plain); (true, packed) ]
  done;
  Sys.remove path;
  metric r "squash.s" (median !packed -. median !plain)

let recorded ~traced ~seed ~seconds ~work r spans =
  let w, setups, more = setup spans seed in
  let path = Filename.concat work "wfs.v4.trc" in
  (* The reference: a live run, and a plain v3 recording of the same run
     replayed.  The v3 replay's tQUAD and QUAD reports must equal the
     live ones, and every measured v4 replay must equal the v3 replay. *)
  let reference =
    attempt r (fun () ->
        let _, _, live = live_op off w in
        let plain = Filename.concat work "wfs.v3.trc" in
        let _, _, v3 =
          Fun.protect
            ~finally:(fun () -> if Sys.file_exists plain then Sys.remove plain)
            (fun () -> record_replay off w ~compress:false ~path:plain)
        in
        same_reports ~what:"live vs v3 replay" v3 live;
        v3)
  in
  let p =
    measure r ~traced ~seconds ~before:more spans (fun spans () ->
        record_replay spans w ~compress:true ~path)
  in
  e2e r ~setups p;
  agree r ~what:"v3 vs v4 replay" reference p;
  if traced then begin
    compile_metric r spans;
    match (List.rev p.values, p.first) with
    | o :: _, Some first ->
        let med f = median (List.map f p.values) in
        metric r "record_s" (med (fun o -> o.record_s));
        metric r "replay_s" (med (fun o -> o.replay_s));
        metric r "reader.load_s" (med (fun o -> o.load_s));
        metric r "trace_mb" (float_of_int o.bytes /. 1e6);
        replay_stats r (List.map (fun o -> o.stats) p.values);
        engine_stats r o.engine;
        let _, probe_s = dbi_and_probe spans r w in
        metric r "writer.s" (reported r "record_s" -. probe_s);
        squash_cost spans r w ~path:(Filename.concat work "squash.trc");
        post_check r (fun () ->
            let reader, pass = reader_layers spans r path w.prog in
            trace_counts r reader;
            add_sink_metrics r [ pass ];
            same_reports ~what:"per-tool consume vs replay" first pass.reports);
        (* The recording splits into probe and writer by difference, so
           only the replay side can leave a gap: its stages are summed
           over the domains that ran them, and the merge is serial. *)
        let get = reported r in
        let stages = get "replay.decode_s" +. get "replay.ordered_s" +. get "replay.shard_s" in
        let serial = get "record_s" +. get "reader.load_s" +. get "replay.merge_s" in
        let wall = median p.walls in
        attribution r ~wall ~covered:(serial +. (stages /. get "replay.domains"));
        metric r "busy_pct" (100. *. (serial +. stages) /. wall)
    | _ -> ()
  end;
  if Sys.file_exists path then Sys.remove path
