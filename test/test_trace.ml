(* The trace subsystem's contract: the codec is lossless, the container
   round-trips through disk (chunked, seekable), and replaying a recording
   through any analysis tool reproduces the live-instrumented run
   byte-for-byte. *)

open Tq_vm
open Tq_dbi
module Event = Tq_trace.Event
module Writer = Tq_trace.Writer
module Reader = Tq_trace.Reader
module Replay = Tq_trace.Replay
module Probe = Tq_trace.Probe

(* ---------- generators ---------- *)

(* A stream with non-decreasing instruction counts, as the probe emits:
   several events may share an icount (one instruction can produce a routine
   entry, a load and a return). *)
let gen_events =
  let open QCheck.Gen in
  let addr = int_bound 0xFF_FFFF in
  let static = int_range (-1) 40 in
  let shape =
    frequency
      [
        (2, map2 (fun routine sp -> `Entry (routine, sp)) (int_bound 40) addr);
        (2, map (fun sp -> `Ret sp) addr);
        ( 4,
          map3
            (fun s (ea, sp) size -> `Load (s, ea, size, sp))
            static (pair addr addr) (int_bound 64) );
        ( 4,
          map3
            (fun s (ea, sp) size -> `Store (s, ea, size, sp))
            static (pair addr addr) (int_bound 64) );
        ( 1,
          map3
            (fun s (src, dst) (len, sp) -> `Copy (s, src, dst, len, sp))
            static (pair addr addr)
            (pair (int_bound 4096) addr) );
        (1, map2 (fun ea size -> `Prefetch (ea, size)) addr (int_bound 64));
        (2, map2 (fun a n -> `Exec (a, n)) addr (int_range 1 30));
      ]
  in
  list_size (int_range 0 400) (pair (int_bound 64) shape)
  |> map (fun steps ->
         let ic = ref 0 in
         List.map
           (fun (delta, sh) ->
             ic := !ic + delta;
             let icount = !ic in
             match sh with
             | `Entry (routine, sp) -> Event.Rtn_entry { icount; routine; sp }
             | `Ret sp -> Event.Ret { icount; sp }
             | `Load (static, ea, size, sp) ->
                 Event.Load { icount; static; ea; size; sp }
             | `Store (static, ea, size, sp) ->
                 Event.Store { icount; static; ea; size; sp }
             | `Copy (static, src, dst, len, sp) ->
                 Event.Block_copy { icount; static; src; dst; len; sp }
             | `Prefetch (ea, size) -> Event.Prefetch { icount; ea; size }
             | `Exec (addr, n) -> Event.Block_exec { icount; addr; n })
           steps)

let arb_events = QCheck.make ~print:(fun evs ->
    String.concat "; " (List.map (Format.asprintf "%a" Event.pp) evs))
    gen_events

(* ---------- codec ---------- *)

let qcheck_leb_roundtrip =
  QCheck.Test.make ~name:"LEB128 round-trips (unsigned and signed)" ~count:500
    QCheck.(pair (int_bound max_int) int)
    (fun (u, s) ->
      let buf = Buffer.create 16 in
      Tq_util.Leb128.write_u buf u;
      Tq_util.Leb128.write_s buf s;
      let str = Buffer.contents buf in
      let pos = ref 0 in
      let u' = Tq_util.Leb128.read_u str pos in
      let s' = Tq_util.Leb128.read_s str pos in
      u = u' && s = s' && !pos = String.length str)

let qcheck_codec_roundtrip =
  QCheck.Test.make ~name:"event codec: decode o encode = id" ~count:200
    arb_events (fun evs ->
      let buf = Buffer.create 1024 in
      let st = Event.fresh_state () in
      List.iter (Event.encode st buf) evs;
      let s = Buffer.contents buf in
      let st = Event.fresh_state () in
      let pos = ref 0 in
      let out = List.map (fun _ -> Event.decode st s pos) evs in
      out = evs && !pos = String.length s)

let qcheck_file_roundtrip =
  (* tiny chunks force many chunk boundaries (state resets, index entries) *)
  QCheck.Test.make ~name:"trace file: load o write = id across chunks"
    ~count:60 arb_events (fun evs ->
      let path = Filename.temp_file "tq_trace" ".trc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Writer.with_file ~chunk_bytes:256 path (fun w ->
              List.iter (Writer.emit w) evs);
          let r = Reader.load path in
          let out = ref [] in
          Reader.iter r (fun ev -> out := ev :: !out);
          List.rev !out = evs && Reader.n_events r = List.length evs))

let qcheck_seek =
  QCheck.Test.make ~name:"iter ~from_icount = filter (icount >=)" ~count:60
    QCheck.(pair arb_events (int_bound 0x3FFF))
    (fun (evs, from_icount) ->
      let path = Filename.temp_file "tq_trace" ".trc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Writer.with_file ~chunk_bytes:128 path (fun w ->
              List.iter (Writer.emit w) evs);
          let r = Reader.load path in
          let out = ref [] in
          Reader.iter ~from_icount r (fun ev -> out := ev :: !out);
          List.rev !out
          = List.filter (fun ev -> Event.icount ev >= from_icount) evs))

let qcheck_iter_tags_partition =
  QCheck.Test.make ~name:"iter_tags partitions the stream by kind" ~count:60
    arb_events (fun evs ->
      let path = Filename.temp_file "tq_trace" ".trc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Writer.with_file ~chunk_bytes:256 path (fun w ->
              List.iter (Writer.emit w) evs);
          let r = Reader.load path in
          let buckets = Array.make Event.n_kinds [] in
          Reader.iter_tags r
            (Array.init Event.n_kinds (fun tag ->
                 fun ev -> buckets.(tag) <- ev :: buckets.(tag)));
          List.for_all
            (fun kind ->
              let tag = Event.kind_tag kind in
              List.rev buckets.(tag)
              = List.filter (fun ev -> Event.tag ev = tag) evs)
            Event.all_kinds))

let test_iter_tags_arity () =
  let path = Filename.temp_file "tq_trace" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.with_file path (fun _ -> ());
      let r = Reader.load path in
      Alcotest.check_raises "wrong sink count"
        (Invalid_argument "Trace.Reader.iter_tags: need one sink per event kind")
        (fun () -> Reader.iter_tags r (Array.make 3 ignore)))

let test_corrupt_trace () =
  let path = Filename.temp_file "tq_trace" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not a trace file at all";
      close_out oc;
      match Reader.load path with
      | _ -> Alcotest.fail "corrupt file loaded"
      | exception Reader.Format_error _ -> ())

(* ---------- live / replay equivalence ---------- *)

(* Renders mirror the CLI's report sections; what matters here is that each
   covers the tool's full observable state, so string equality means the
   live and replayed analyses agree everywhere. *)
let render_tquad t =
  let kernels = Tq_tquad.Tquad.kernels t in
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      let tot = Tq_tquad.Tquad.totals t r in
      Buffer.add_string buf
        (Printf.sprintf "%s %d-%d %d %d/%d %d/%d %.4f\n" r.Symtab.name
           tot.Tq_tquad.Tquad.first_slice tot.last_slice tot.activity_span
           tot.read_incl tot.read_excl tot.write_incl tot.write_excl
           (Tq_tquad.Tquad.max_rw_bpi t r ~incl:true)))
    kernels;
  Buffer.add_string buf
    (Tq_report.Report.figure t ~metric:Tq_tquad.Tquad.Read_incl ~kernels
       ~title:"read bandwidth" ());
  Buffer.contents buf

let render_quad q =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Tq_report.Report.quad_table (Tq_quad.Quad.rows q));
  List.iter
    (fun (b : Tq_quad.Quad.binding) ->
      Buffer.add_string buf
        (Printf.sprintf "%s->%s %d %d\n" b.producer.Symtab.name
           b.consumer.Symtab.name b.bytes_incl b.unma))
    (Tq_quad.Quad.bindings q);
  Buffer.contents buf

let render_gprof g =
  Tq_report.Report.flat_profile (Tq_gprofsim.Gprofsim.flat_profile g)

let scen = Tq_wfs.Scenario.tiny
let slice = 2_000
let period = 2_000

(* One live wfs run with all six tools attached at once (each registers its
   own probe on the engine). *)
let live_reports () =
  let m =
    Machine.create
      ~vfs:(Tq_wfs.Harness.make_vfs scen)
      (Tq_wfs.Harness.compile scen)
  in
  let eng = Engine.create m in
  let tq = Tq_tquad.Tquad.attach ~slice_interval:slice eng in
  let q = Tq_quad.Quad.attach eng in
  let g = Tq_gprofsim.Gprofsim.attach ~period eng in
  let mix = Tq_prof.Ins_mix.attach eng in
  let cache = Tq_prof.Cache_sim.attach eng in
  let fp = Tq_prof.Footprint.attach eng in
  Engine.run ~fuel:(Tq_wfs.Harness.fuel scen) eng;
  [
    ("tquad", render_tquad tq);
    ("quad", render_quad q);
    ("gprof", render_gprof g);
    ("mix", Tq_prof.Ins_mix.render mix);
    ("cache", Tq_prof.Cache_sim.render cache);
    ("footprint", Tq_prof.Footprint.render fp);
  ]

let record_trace path =
  let prog = Tq_wfs.Harness.compile scen in
  let m = Machine.create ~vfs:(Tq_wfs.Harness.make_vfs scen) prog in
  let eng = Engine.create m in
  let _events : int =
    Probe.record ~fuel:(Tq_wfs.Harness.fuel scen) eng ~path
  in
  prog

let replay_jobs prog =
  let symtab = prog.Program.symtab in
  [
    Replay.job ~wants:Tq_tquad.Tquad.interest "tquad" (fun () ->
        let t = Tq_tquad.Tquad.create ~slice_interval:slice symtab in
        (Tq_tquad.Tquad.consume t, fun () -> render_tquad t));
    Replay.job ~wants:Tq_quad.Quad.interest "quad" (fun () ->
        let q = Tq_quad.Quad.create symtab in
        (Tq_quad.Quad.consume q, fun () -> render_quad q));
    Replay.job ~wants:Tq_gprofsim.Gprofsim.interest "gprof" (fun () ->
        let g = Tq_gprofsim.Gprofsim.create ~period symtab in
        (Tq_gprofsim.Gprofsim.consume g, fun () -> render_gprof g));
    Replay.job ~wants:Tq_prof.Ins_mix.interest "mix" (fun () ->
        let mix = Tq_prof.Ins_mix.create prog in
        (Tq_prof.Ins_mix.consume mix, fun () -> Tq_prof.Ins_mix.render mix));
    Replay.job ~wants:Tq_prof.Cache_sim.interest "cache" (fun () ->
        let c = Tq_prof.Cache_sim.create symtab in
        (Tq_prof.Cache_sim.consume c, fun () -> Tq_prof.Cache_sim.render c));
    Replay.job ~wants:Tq_prof.Footprint.interest "footprint" (fun () ->
        let f = Tq_prof.Footprint.create prog in
        (Tq_prof.Footprint.consume f, fun () -> Tq_prof.Footprint.render f));
  ]

(* Every job in these equivalence runs must succeed; unwrap its report. *)
let report name = function
  | Ok r -> r
  | Error f -> Alcotest.fail (name ^ " failed: " ^ Replay.failure_message f)

let test_replay_equivalence () =
  let path = Filename.temp_file "tq_wfs" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let live = live_reports () in
      let prog = record_trace path in
      let reader = Reader.load path in
      let jobs = replay_jobs prog in
      let seq = Replay.sequential reader jobs in
      let par = Replay.parallel ~domains:2 reader jobs in
      List.iter2
        (fun (name, live_report) (name', replayed) ->
          Alcotest.(check string) ("job name " ^ name) name name';
          Alcotest.(check string)
            ("sequential replay of " ^ name ^ " matches live")
            live_report (report name replayed))
        live seq;
      Alcotest.(check bool) "parallel = sequential" true (par = seq))

(* A tool that raises mid-replay must surface as its own [Error]; every
   other job in the same pass still produces its live-identical report. *)
let test_supervised_replay () =
  let path = Filename.temp_file "tq_wfs" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let live = live_reports () in
      let prog = record_trace path in
      let reader = Reader.load path in
      let bomb =
        Replay.job "bomb" (fun () ->
            let seen = ref 0 in
            ( (fun _ ->
                incr seen;
                if !seen = 3 then failwith "synthetic tool crash"),
              fun () -> "unreachable" ))
      in
      let jobs = bomb :: replay_jobs prog in
      let check results =
        (match List.assoc "bomb" results with
        | Error f ->
            Alcotest.(check bool) "failure is the tool's exn" true
              (match f.Replay.exn with
              | Failure msg -> msg = "synthetic tool crash"
              | _ -> false);
            Alcotest.(check bool) "not classified as a trace error" false
              (Replay.is_trace_error f)
        | Ok _ -> Alcotest.fail "raising job reported success");
        List.iter
          (fun (name, live_report) ->
            Alcotest.(check string)
              ("survivor " ^ name ^ " still matches live")
              live_report
              (report name (List.assoc name results)))
          live
      in
      check (Replay.sequential reader jobs);
      check (Replay.parallel ~domains:2 reader jobs);
      (* even with every job sharing one domain's decode pass *)
      check (Replay.parallel ~domains:1 reader jobs))

(* ---------- parallel replay properties ---------- *)

(* [Replay.parallel]'s whole contract is byte-identity with
   {!Replay.sequential} no matter where chunk boundaries fall, how many
   domains run, or which tools are asked for in which order (together they
   decide how the tool groups fall).  Exercise it with a real recording (the
   tools need a coherent program, stack discipline and address layout, which
   [gen_events] cannot provide) re-encoded under a randomized chunk size. *)

let micro_scen = { Tq_wfs.Scenario.tiny with speakers = 2; chunks = 2 }

(* Record once, lazily; iterations only re-encode. *)
let micro_recording =
  lazy
    (let path = Filename.temp_file "tq_wfs" ".trc" in
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         let prog = Tq_wfs.Harness.compile micro_scen in
         let m =
           Machine.create ~vfs:(Tq_wfs.Harness.make_vfs micro_scen) prog
         in
         let eng = Engine.create m in
         let _events : int =
           Probe.record ~fuel:(Tq_wfs.Harness.fuel micro_scen) eng ~path
         in
         let r = Reader.load path in
         let out = ref [] in
         Reader.iter r (fun ev -> out := ev :: !out);
         (prog, List.rev !out)))

(* Outcome lists match when every job agrees by name and payload; failures
   compare by message (backtraces are environment-dependent). *)
let outcomes_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, o1) (n2, o2) ->
         n1 = n2
         &&
         match (o1, o2) with
         | Ok r1, Ok r2 -> r1 = r2
         | Error f1, Error f2 ->
             Replay.failure_message f1 = Replay.failure_message f2
         | _ -> false)
       a b

let reencode ?(compress = false) ~chunk_bytes evs =
  let path = Filename.temp_file "tq_par" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.with_file ~compress ~chunk_bytes path (fun w ->
          List.iter (Writer.emit w) evs);
      In_channel.with_open_bin path In_channel.input_all)

let tool_names = [ "tquad"; "quad"; "gprof"; "mix"; "cache"; "footprint" ]

(* [replay_jobs] restricted to [names], in that order *)
let jobs_named prog names =
  let all = replay_jobs prog in
  List.map (fun n -> List.find (fun j -> j.Replay.name = n) all) names

let gen_parallel_shape =
  QCheck.Gen.(
    triple
      (int_range 256 4096) (* chunk_bytes: boundaries land anywhere *)
      (int_range 1 4) (* domains (capped by the machine) *)
      (* a random non-empty subset of the tools, in random order *)
      ( shuffle_l tool_names >>= fun l ->
        map (fun k -> List.filteri (fun i _ -> i < k) l) (int_range 1 6) ))

let arb_parallel_shape =
  QCheck.make
    ~print:(fun (cb, d, tools) ->
      Printf.sprintf "chunk_bytes=%d domains=%d tools=[%s]" cb d
        (String.concat "; " tools))
    gen_parallel_shape

let qcheck_parallel_identity =
  QCheck.Test.make
    ~name:
      "parallel replay = sequential on v3 and v4 (random chunks/domains/tools)"
    ~count:12 arb_parallel_shape
    (fun (chunk_bytes, domains, tools) ->
      let prog, evs = Lazy.force micro_recording in
      let jobs = jobs_named prog tools in
      List.for_all
        (fun compress ->
          let raw = reencode ~compress ~chunk_bytes evs in
          let seq = Replay.sequential (Reader.of_string raw) jobs in
          List.for_all (fun (_, o) -> Result.is_ok o) seq
          && outcomes_equal seq
               (Replay.parallel ~domains (Reader.of_string raw) jobs))
        [ false; true ])

(* Same identity under salvage: corrupt the container (v3 or v4), load what
   survives, and the parallel run must still agree with the sequential walk
   of the same salvaged reader.  A mutation that defeats salvage entirely
   must do so on both paths ([of_string] raises before any replay
   starts). *)
let qcheck_parallel_salvage_identity =
  QCheck.Test.make
    ~name:"parallel replay = sequential under salvage of a corrupted trace"
    ~count:16
    (QCheck.triple arb_parallel_shape QCheck.bool QCheck.(int_bound 10_000))
    (fun ((chunk_bytes, domains, tools), compress, seed) ->
      let prog, evs = Lazy.force micro_recording in
      let raw = reencode ~compress ~chunk_bytes evs in
      let mutation = Tq_faultgen.Faultgen.random ~seed raw in
      let mutated = Tq_faultgen.Faultgen.apply mutation raw in
      let jobs = jobs_named prog tools in
      match Reader.of_string ~mode:Reader.Salvage mutated with
      | exception Reader.Format_error _ -> (
          match Reader.of_string ~mode:Reader.Salvage mutated with
          | exception Reader.Format_error _ -> true
          | _ -> false)
      | r1 ->
          let r2 = Reader.of_string ~mode:Reader.Salvage mutated in
          outcomes_equal (Replay.sequential r1 jobs)
            (Replay.parallel ~domains r2 jobs))

(* The reader's concurrency contract: once every chunk is verified, two
   domains iterating the same reader at once each see the exact stream. *)
let test_shared_reader_two_domains () =
  let _, evs = Lazy.force micro_recording in
  List.iter
    (fun compress ->
      let r = Reader.of_string (reencode ~compress ~chunk_bytes:512 evs) in
      ignore (Reader.crc_check r : int);
      let walk () =
        let out = ref [] in
        Reader.iter_tags r
          (Array.make Event.n_kinds (fun ev -> out := ev :: !out));
        List.rev !out
      in
      let other = Domain.spawn walk in
      let mine = walk () in
      let theirs = Domain.join other in
      let what = if compress then "v4" else "v3" in
      Alcotest.(check bool) (what ^ ": caller's walk = oracle") true
        (mine = evs);
      Alcotest.(check bool) (what ^ ": spawned walk = oracle") true
        (theirs = evs);
      Alcotest.(check int) (what ^ ": still fully verified") (Reader.n_chunks r)
        (Reader.verified_chunks r))
    [ false; true ]

(* A tool that raises in one domain's group fails only its own job: every
   other report, in its group and in the other domain's, matches the clean
   run.  The sabotage mirrors the CLI's --fail-tool: same name, wants and
   cost, a sink that raises on its first event. *)
let test_parallel_fail_tool () =
  let prog, evs = Lazy.force micro_recording in
  let raw = reencode ~chunk_bytes:1024 evs in
  let clean = Replay.sequential (Reader.of_string raw) (replay_jobs prog) in
  List.iter
    (fun victim ->
      let jobs =
        List.map
          (fun (j : Replay.job) ->
            if j.name <> victim then j
            else
              Replay.job ~wants:j.wants ~cost:j.cost j.name (fun () ->
                  let _sink, finish = j.make () in
                  ((fun _ -> failwith "deliberate failure"), finish)))
          (replay_jobs prog)
      in
      let groups = ref [] in
      let results =
        Replay.parallel ~domains:2
          ~timings:(fun ts ->
            groups := List.map (fun (t : Replay.domain_timing) -> t.jobs) ts)
          (Reader.of_string raw) jobs
      in
      if Domain.recommended_domain_count () >= 2 then
        Alcotest.(check int) "two tool groups" 2 (List.length !groups);
      List.iter2
        (fun (name, want) (name', got) ->
          Alcotest.(check string) "job order kept" name name';
          match got with
          | Error f when name = victim ->
              Alcotest.(check bool) "victim fails with its own exception" false
                (Replay.is_trace_error f)
          | Error f ->
              Alcotest.failf "%s failed alongside %s: %s" name victim
                (Replay.failure_message f)
          | Ok _ when name = victim -> Alcotest.failf "%s did not fail" victim
          | Ok r ->
              Alcotest.(check string)
                (Printf.sprintf "%s unchanged with %s failing" name victim)
                (report name want) r)
        clean results)
    [ "quad"; "cache" ]

(* ---------- crash safety of the writer ---------- *)

let test_writer_atomic_rename () =
  let dir = Filename.temp_file "tq_dir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "out.trc" in
  let tmp = path ^ ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ path; tmp ];
      Sys.rmdir dir)
    (fun () ->
      let w = Writer.create path in
      Writer.emit w (Event.Load { icount = 1; static = 0; ea = 8; size = 4; sp = 0 });
      Alcotest.(check bool) "streams to .tmp while recording" true
        (Sys.file_exists tmp);
      Alcotest.(check bool) "final path absent until close" false
        (Sys.file_exists path);
      Writer.close w;
      Alcotest.(check bool) ".tmp gone after close" false (Sys.file_exists tmp);
      Alcotest.(check bool) "final path appears atomically" true
        (Sys.file_exists path);
      Alcotest.(check int) "renamed container loads" 1
        (Reader.n_events (Reader.load path));
      (* close is idempotent; emit after close is a hard error *)
      Writer.close w;
      Alcotest.check_raises "emit after close"
        (Invalid_argument "Trace.Writer.emit: closed") (fun () ->
          Writer.emit w (Event.Ret { icount = 2; sp = 0 })))

(* ---------- v2 container back-compat ---------- *)

(* Hand-assemble a v2 container (no chunk magic, no CRCs) the way the old
   writer laid it out, so pre-upgrade recordings keep loading. *)
let build_v2 ~chunk_events events =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "TQTRC2\n";
  Buffer.add_int64_le buf 0L;
  let chunks = ref [] in
  let rec split = function
    | [] -> []
    | evs ->
        let rec take n = function
          | x :: tl when n > 0 ->
              let a, b = take (n - 1) tl in
              (x :: a, b)
          | rest -> ([], rest)
        in
        let head, tail = take chunk_events evs in
        head :: split tail
  in
  List.iter
    (fun evs ->
      let first_icount = Event.icount (List.hd evs) in
      let payload = Buffer.create 256 in
      let st = Event.fresh_state ~icount:first_icount () in
      List.iter (Event.encode st payload) evs;
      chunks := (Buffer.length buf, first_icount, List.length evs) :: !chunks;
      Tq_util.Leb128.write_u buf (List.length evs);
      Tq_util.Leb128.write_u buf first_icount;
      Tq_util.Leb128.write_u buf (Buffer.length payload);
      Buffer.add_buffer buf payload)
    (split events);
  let chunks = List.rev !chunks in
  let index_offset = Buffer.length buf in
  Tq_util.Leb128.write_u buf (List.length chunks);
  let prev_off = ref 0 and prev_ic = ref 0 in
  List.iter
    (fun (off, ic, n) ->
      Tq_util.Leb128.write_u buf (off - !prev_off);
      Tq_util.Leb128.write_u buf (ic - !prev_ic);
      Tq_util.Leb128.write_u buf n;
      prev_off := off;
      prev_ic := ic)
    chunks;
  Buffer.add_int64_le buf (Int64.of_int index_offset);
  Buffer.add_string buf "TQTRIX1\n";
  Buffer.contents buf

let qcheck_v2_backcompat =
  QCheck.Test.make ~name:"v2 containers still load (no CRCs, no salvage)"
    ~count:40 arb_events (fun evs ->
      QCheck.assume (evs <> []);
      let raw = build_v2 ~chunk_events:7 evs in
      let r = Reader.of_string raw in
      let out = ref [] in
      Reader.iter r (fun ev -> out := ev :: !out);
      let loads_ok =
        Reader.version r = 2
        && List.rev !out = evs
        && Reader.n_events r = List.length evs
      in
      let salvage_refused =
        match Reader.of_string ~mode:Reader.Salvage raw with
        | _ -> false
        | exception Reader.Format_error _ -> true
      in
      loads_ok && salvage_refused)

let test_v3_is_default () =
  let path = Filename.temp_file "tq_trace" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.with_file path (fun w ->
          Writer.emit w (Event.Ret { icount = 5; sp = 0 }));
      let r = Reader.load path in
      Alcotest.(check int) "writer emits v3" 3 (Reader.version r);
      Alcotest.(check bool) "strict load reports no salvage" true
        (Reader.salvage_info r = None))

let test_record_reader_stats () =
  let path = Filename.temp_file "tq_wfs" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let _ = record_trace path in
      let r = Reader.load path in
      Alcotest.(check bool) "has events" true (Reader.n_events r > 0);
      Alcotest.(check bool) "chunked" true (Reader.n_chunks r > 1);
      (* the End event's icount is the run's final instruction count *)
      Alcotest.(check bool) "monotone last icount" true
        (Reader.last_icount r > 0);
      let max_ic = ref 0 and n = ref 0 in
      Reader.iter r (fun ev ->
          incr n;
          let ic = Event.icount ev in
          Alcotest.(check bool) "icount never regresses" true (ic >= !max_ic);
          max_ic := ic);
      Alcotest.(check int) "iter covers all events" (Reader.n_events r) !n;
      Alcotest.(check int) "last icount" (Reader.last_icount r) !max_ic)

let test_fingerprint_guard () =
  let path = Filename.temp_file "tq_wfs" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let prog = record_trace path in
      let r = Reader.load path in
      Alcotest.(check bool) "recorder stamped a fingerprint" true
        (Reader.fingerprint r <> 0L);
      Alcotest.(check bool) "stamp is the program's fingerprint" true
        (Reader.fingerprint r = Program.fingerprint prog);
      (match Replay.check_program r prog with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      (* same sources, different scenario constants -> different image *)
      let other = Tq_wfs.Harness.compile Tq_wfs.Scenario.default in
      (match Replay.check_program r other with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "trace accepted against the wrong program");
      (* a trace whose recorder did not know the program is accepted *)
      let anon = Filename.temp_file "tq_anon" ".trc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove anon)
        (fun () ->
          Writer.with_file anon (fun _ -> ());
          let r2 = Reader.load anon in
          Alcotest.(check bool) "unknown stamp is 0" true
            (Reader.fingerprint r2 = 0L);
          match Replay.check_program r2 prog with
          | Ok () -> ()
          | Error msg -> Alcotest.fail msg))

let suites =
  [
    ( "trace",
      [
        QCheck_alcotest.to_alcotest qcheck_leb_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_codec_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_file_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_seek;
        QCheck_alcotest.to_alcotest qcheck_iter_tags_partition;
        Alcotest.test_case "iter_tags arity check" `Quick test_iter_tags_arity;
        Alcotest.test_case "corrupt file rejected" `Quick test_corrupt_trace;
        Alcotest.test_case "record: reader stats sane" `Quick
          test_record_reader_stats;
        Alcotest.test_case "wfs: replay = live for all six tools" `Quick
          test_replay_equivalence;
        Alcotest.test_case "supervised replay isolates a raising tool" `Quick
          test_supervised_replay;
        QCheck_alcotest.to_alcotest qcheck_parallel_identity;
        QCheck_alcotest.to_alcotest qcheck_parallel_salvage_identity;
        Alcotest.test_case "two domains share one verified reader" `Quick
          test_shared_reader_two_domains;
        Alcotest.test_case "parallel: a failing tool fails only its job" `Quick
          test_parallel_fail_tool;
        Alcotest.test_case "writer streams to .tmp, renames on close" `Quick
          test_writer_atomic_rename;
        QCheck_alcotest.to_alcotest qcheck_v2_backcompat;
        Alcotest.test_case "new recordings are v3" `Quick test_v3_is_default;
        Alcotest.test_case "fingerprint binds trace to program" `Quick
          test_fingerprint_guard;
      ] );
  ]
