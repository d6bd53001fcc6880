(* v4 redundancy suppression: the compressed container must decode to the
   byte-identical event stream (and therefore byte-identical reports) while
   actually shrinking loop-dominated recordings.  These tests pin the whole
   contract: stream identity on wfs and on random MiniC programs, report
   identity through sequential / parallel / salvage replay, the wire format
   itself via a hand-assembled golden v4 fixture, and the reader's
   raw-vs-stored accounting. *)

module Event = Tq_trace.Event
module Writer = Tq_trace.Writer
module Reader = Tq_trace.Reader
module Squash = Tq_trace.Squash
module Replay = Tq_trace.Replay
module Probe = Tq_trace.Probe
module Machine = Tq_vm.Machine
module Engine = Tq_dbi.Engine
module Program = Tq_vm.Program

let read_all path = In_channel.with_open_bin path In_channel.input_all

let events_of r =
  let out = ref [] in
  Reader.iter r (fun ev -> out := ev :: !out);
  List.rev !out

(* Record one scenario twice — plain v3 and compressed v4 — and return
   both raw container images.  Fresh machines, same program: the event
   streams are deterministic, so any divergence is the compressor's. *)
let record_both scen =
  let record ~compress =
    let path = Filename.temp_file "tq_cmp" ".trc" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let prog = Tq_wfs.Harness.compile scen in
        let m = Machine.create ~vfs:(Tq_wfs.Harness.make_vfs scen) prog in
        let eng = Engine.create m in
        let _n : int =
          Probe.record ~fuel:(Tq_wfs.Harness.fuel scen) ~compress eng ~path
        in
        (prog, read_all path))
  in
  let prog, plain = record ~compress:false in
  let _, compressed = record ~compress:true in
  (prog, plain, compressed)

let wfs_recording = lazy (record_both Tq_wfs.Scenario.tiny)

(* ---------- stream identity + compression ratio on wfs ---------- *)

let test_wfs_identity_and_ratio () =
  let _, plain, compressed = Lazy.force wfs_recording in
  let rp = Reader.of_string plain and rc = Reader.of_string compressed in
  Alcotest.(check int) "plain is v3" 3 (Reader.version rp);
  Alcotest.(check int) "compressed is v4" 4 (Reader.version rc);
  Alcotest.(check int) "same raw event count" (Reader.n_events rp)
    (Reader.n_events rc);
  Alcotest.(check bool) "decoded streams identical" true
    (events_of rp = events_of rc);
  Alcotest.(check bool) "repeat chunks present" true
    (Reader.repeat_chunks rc > 0);
  Alcotest.(check bool) "stored < raw" true
    (Reader.stored_events rc < Reader.n_events rc);
  Alcotest.(check int) "v3 stores everything" (Reader.n_events rp)
    (Reader.stored_events rp);
  let ratio =
    float_of_int (String.length plain) /. float_of_int (String.length compressed)
  in
  if ratio < 4.0 then
    Alcotest.failf "wfs compression ratio %.2fx < 4x (%d -> %d bytes)" ratio
      (String.length plain) (String.length compressed)

let test_reader_stats () =
  let _, _, compressed = Lazy.force wfs_recording in
  let r = Reader.of_string compressed in
  Alcotest.(check int) "plain + repeat + body = chunks"
    (Reader.n_chunks r)
    (Reader.plain_chunks r + Reader.repeat_chunks r + Reader.body_chunks r);
  Alcotest.(check bool) "body defs present" true (Reader.body_chunks r > 0);
  Alcotest.(check bool) "bodies interned: fewer defs than repeats" true
    (Reader.body_chunks r < Reader.repeat_chunks r);
  (* chunk_event_count must report raw (expanded) counts and sum to n_events *)
  let sum = ref 0 in
  for i = 0 to Reader.n_chunks r - 1 do
    let n = Reader.chunk_event_count r i in
    Alcotest.(check int)
      (Printf.sprintf "chunk %d decode matches index" i)
      n
      (Array.length (Reader.chunk_events r i));
    sum := !sum + n
  done;
  Alcotest.(check int) "index counts are raw" (Reader.n_events r) !sum;
  Alcotest.(check int) "crc_check covers every chunk" (Reader.n_chunks r)
    (Reader.crc_check r)

(* ---------- seek equivalence on the compressed container ---------- *)

let test_compressed_seek () =
  let _, plain, compressed = Lazy.force wfs_recording in
  let rp = Reader.of_string plain and rc = Reader.of_string compressed in
  let last = Reader.last_icount rp in
  List.iter
    (fun from_icount ->
      let tail r =
        let out = ref [] in
        Reader.iter ~from_icount r (fun ev -> out := ev :: !out);
        List.rev !out
      in
      Alcotest.(check bool)
        (Printf.sprintf "seek to %d agrees" from_icount)
        true
        (tail rp = tail rc))
    [ 0; 1; last / 3; last / 2; last - 1; last; last + 1 ]

(* ---------- report identity: live vs sequential vs parallel ----------

   The jobs, renderers and outcome comparator are [Test_trace]'s own — the
   exact full-state render functions the replay-equivalence tests use, so
   string equality here is full-tool-state equality. *)

let replay_jobs = Test_trace.replay_jobs
let outcomes_equal = Test_trace.outcomes_equal

let test_report_identity () =
  let prog, plain, compressed = Lazy.force wfs_recording in
  let baseline = Replay.sequential (Reader.of_string plain) (replay_jobs prog) in
  List.iter (fun (name, o) ->
      if Result.is_error o then Alcotest.failf "baseline job %s failed" name)
    baseline;
  let check what outcomes =
    Alcotest.(check bool) (what ^ " reports byte-identical to v3") true
      (outcomes_equal baseline outcomes)
  in
  let rc () = Reader.of_string compressed in
  check "sequential" (Replay.sequential (rc ()) (replay_jobs prog));
  List.iter
    (fun domains ->
      check
        (Printf.sprintf "parallel x%d" domains)
        (Replay.parallel ~domains (rc ()) (replay_jobs prog)))
    [ 1; 2; 16 ]

(* ---------- round-trip property on arbitrary event streams ---------- *)

(* [Writer ~compress] must round-trip any event stream — including ones
   with no loop structure at all, adversarial key collisions, and streams
   that end mid-run (flush of an uncommitted or partially-matched run). *)
let qcheck_compress_roundtrip =
  QCheck.Test.make ~name:"compressed writer round-trips any event stream"
    ~count:120
    (QCheck.pair Test_trace.arb_events (QCheck.int_range 128 2048))
    (fun (evs, chunk_bytes) ->
      let path = Filename.temp_file "tq_cmp" ".trc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Writer.with_file ~chunk_bytes ~compress:true path (fun w ->
              List.iter (Writer.emit w) evs);
          let r = Reader.load path in
          Reader.version r = 4
          && events_of r = evs
          && Reader.n_events r = List.length evs))

(* A synthetic perfectly-affine loop must actually commit to repeat chunks
   and reach a high event-level ratio — guards against the suppressor
   silently degrading to pass-through. *)
let test_affine_loop_compresses () =
  let evs = ref [] in
  for i = 0 to 999 do
    let icount = i * 10 in
    evs :=
      Event.Ret { icount = icount + 3; sp = 4096 - (i * 16) }
      :: Event.Store
           { icount = icount + 2; static = 7; ea = 8192 + (i * 8); size = 8;
             sp = 4096 - (i * 16) }
      :: Event.Load
           { icount = icount + 1; static = 7; ea = 4096 + (i * 8); size = 8;
             sp = 4096 - (i * 16) }
      :: Event.Block_exec { icount; addr = 0x400; n = 10 }
      :: !evs
  done;
  let evs = List.rev !evs in
  let path = Filename.temp_file "tq_cmp" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.with_file ~compress:true path (fun w ->
          List.iter (Writer.emit w) evs);
      let plain = Filename.temp_file "tq_cmp" ".trc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove plain)
        (fun () ->
          Writer.with_file plain (fun w -> List.iter (Writer.emit w) evs);
          let r = Reader.load path in
          Alcotest.(check bool) "stream survives" true (events_of r = evs);
          Alcotest.(check bool) "repeat chunks" true
            (Reader.repeat_chunks r > 0);
          let stored = Reader.stored_events r and raw = Reader.n_events r in
          if stored * 20 > raw then
            Alcotest.failf "affine loop barely compressed: %d stored of %d raw"
              stored raw;
          let ratio =
            float_of_int (Reader.byte_size (Reader.load plain))
            /. float_of_int (Reader.byte_size r)
          in
          if ratio < 10.0 then
            Alcotest.failf "affine loop ratio %.1fx < 10x" ratio))

(* ---------- random MiniC programs: compressed record = plain record ----- *)

let qcheck_minic_record_identity =
  QCheck.Test.make
    ~name:"record --compress = record on random MiniC programs" ~count:20
    (QCheck.make ~print:Fun.id Test_fuzz.gen_minic_valid)
    (fun src ->
      let prog =
        Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"gen" src ]
      in
      let record ~compress =
        let path = Filename.temp_file "tq_cmp" ".trc" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let eng = Engine.create (Machine.create prog) in
            (* a generated program may exhaust the fuel budget — the probe
               still finalizes the container, and execution is deterministic,
               so both recordings truncate at the same event *)
            (try ignore (Probe.record ~fuel:200_000 ~compress eng ~path : int)
             with Tq_vm.Executor.Out_of_fuel _ -> ());
            read_all path)
      in
      let plain = record ~compress:false in
      let compressed = record ~compress:true in
      let rp = Reader.of_string plain and rc = Reader.of_string compressed in
      Reader.version rc = 4
      && events_of rp = events_of rc
      && String.length compressed <= String.length plain)

(* ---------- salvage of corrupted v4 containers ---------- *)

let qcheck_v4_salvage_identity =
  QCheck.Test.make
    ~name:"parallel = sequential under salvage of a corrupted v4 trace"
    ~count:25
    QCheck.(pair (int_bound 100_000) Test_trace.arb_parallel_shape)
    (fun (seed, (_, domains, tools)) ->
      let prog, _, compressed = Lazy.force wfs_recording in
      let mutation = Tq_faultgen.Faultgen.random ~seed compressed in
      let mutated = Tq_faultgen.Faultgen.apply mutation compressed in
      let jobs = Test_trace.jobs_named prog tools in
      match Reader.of_string ~mode:Reader.Salvage mutated with
      | exception Reader.Format_error _ -> (
          (* both paths must refuse identically *)
          match Reader.of_string ~mode:Reader.Salvage mutated with
          | exception Reader.Format_error _ -> true
          | _ -> false)
      | r1 ->
          let r2 = Reader.of_string ~mode:Reader.Salvage mutated in
          outcomes_equal (Replay.sequential r1 jobs)
            (Replay.parallel ~domains r2 jobs))

(* Walk the chunk region with the self-delimiting headers and return the
   payload span (start, end) of the first chunk of [want]ed kind — the
   tests' own minimal scanner, so a mutation lands inside a real chunk and
   never accidentally in some lookalike payload byte. *)
let find_payload_span raw want =
  let pos = ref 15 (* header_bytes *) in
  let span = ref None in
  while !span = None do
    let kind = raw.[!pos] in
    incr pos;
    let _n = Tq_util.Leb128.read_u raw pos in
    let _fic = Tq_util.Leb128.read_u raw pos in
    let plen = Tq_util.Leb128.read_u raw pos in
    let pstart = !pos + 4 in
    if kind = want then span := Some (pstart, pstart + plen)
    else pos := pstart + plen
  done;
  Option.get !span

let flip_byte raw pos =
  let b = Bytes.of_string raw in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  Bytes.to_string b

(* Tearing a byte out of a repeat chunk must drop that chunk and resync on
   the next one — salvage keeps everything else. *)
let test_torn_repeat_chunk_salvage () =
  let _, _, compressed = Lazy.force wfs_recording in
  let r = Reader.of_string compressed in
  Alcotest.(check bool) "fixture has repeat chunks" true
    (Reader.repeat_chunks r > 0);
  (* corrupt the last payload byte (a field-table byte — the header fields
     stay structurally valid, only the CRC can catch it) *)
  let _, pend = find_payload_span compressed Writer.repeat_magic in
  let mutated = flip_byte compressed (pend - 1) in
  (match
     let r = Reader.of_string mutated in
     ignore (Reader.crc_check r : int)
   with
  | () -> Alcotest.fail "strict reader accepted a torn repeat chunk"
  | exception Reader.Format_error _ -> ());
  let s = Reader.of_string ~mode:Reader.Salvage mutated in
  let info =
    match Reader.salvage_info s with
    | Some i -> i
    | None -> Alcotest.fail "salvage reader has no scan info"
  in
  Alcotest.(check bool) "dropped at least one chunk" true
    (info.Reader.dropped_chunks >= 1);
  Alcotest.(check bool) "kept most chunks" true
    (info.Reader.salvaged_chunks >= Reader.n_chunks r - 2);
  Alcotest.(check bool) "salvaged events shrink" true
    (Reader.n_events s < Reader.n_events r)

(* Tearing a body-def chunk is worse than tearing a repeat: every repeat
   chunk referencing it becomes unexpandable.  Salvage must drop the def
   AND its dependents, never expand a repeat against wrong body bytes. *)
let test_torn_body_def_salvage () =
  let _, _, compressed = Lazy.force wfs_recording in
  let r = Reader.of_string compressed in
  Alcotest.(check bool) "fixture has body defs" true
    (Reader.body_chunks r > 0);
  (* corrupt a blob byte (past the leading body-length ULEB): the strict
     loader catches the reference/def CRC mismatch at load time *)
  let pstart, _ = find_payload_span compressed Writer.body_magic in
  let mutated = flip_byte compressed (pstart + 1) in
  (match Reader.of_string mutated with
  | _ -> Alcotest.fail "strict load accepted a torn body def"
  | exception Reader.Format_error _ -> ());
  let s = Reader.of_string ~mode:Reader.Salvage mutated in
  let info = Option.get (Reader.salvage_info s) in
  (* the def plus at least one dependent repeat are gone *)
  Alcotest.(check bool) "dropped def and dependents" true
    (info.Reader.dropped_chunks >= 2);
  Alcotest.(check bool) "salvaged events shrink" true
    (Reader.n_events s < Reader.n_events r);
  Alcotest.(check bool) "no dangling repeats survive: stream decodes" true
    (List.length (events_of s) = Reader.n_events s)

(* A flipped chunk-kind byte (plain <-> repeat) must fail the CRC — v4
   checksums cover the kind byte precisely so mislabeled chunks cannot
   decode as the wrong kind. *)
let test_kind_flip_detected () =
  let _, _, compressed = Lazy.force wfs_recording in
  let r = Reader.of_string compressed in
  let mutated =
    Tq_faultgen.Faultgen.apply
      (Tq_faultgen.Faultgen.Flip_kind { index = 0 })
      compressed
  in
  (match Reader.of_string mutated with
  | _ -> Alcotest.fail "strict load accepted a flipped chunk kind"
  | exception Reader.Format_error _ -> ());
  let s = Reader.of_string ~mode:Reader.Salvage mutated in
  Alcotest.(check bool) "salvage drops only the flipped chunk" true
    (Reader.n_chunks s >= Reader.n_chunks r - 1)

(* ---------- golden fixtures: the wire format is pinned ---------- *)

(* Hand-assemble a v4 container with one plain chunk, one body-def chunk
   and one repeat chunk referencing it, byte by byte, straight from
   docs/TRACE.md.  If this fixture stops decoding, the wire format changed
   — which is a compatibility break, not a refactor. *)
let build_v4_golden () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "TQTRC4\n";
  Buffer.add_int64_le buf 0L (* fingerprint *);
  let chunks = ref [] in
  let add_chunk ~kind ~n ~first_icount payload =
    let off = Buffer.length buf in
    let meta = Buffer.create 16 in
    Tq_util.Leb128.write_u meta n;
    Tq_util.Leb128.write_u meta first_icount;
    Tq_util.Leb128.write_u meta (String.length payload);
    let meta = Buffer.contents meta in
    let crc = Tq_util.Crc32.digest (String.make 1 kind) in
    let crc = Tq_util.Crc32.digest ~crc meta in
    let crc = Tq_util.Crc32.digest ~crc payload in
    Buffer.add_char buf kind;
    Buffer.add_string buf meta;
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int crc);
    Buffer.add_bytes buf b;
    Buffer.add_string buf payload;
    chunks := (off, first_icount, n) :: !chunks
  in
  (* plain chunk: two events *)
  let payload = Buffer.create 32 in
  let st = Event.fresh_state ~icount:100 () in
  Event.encode st payload (Event.Rtn_entry { icount = 100; routine = 1; sp = 4096 });
  Event.encode st payload (Event.Load { icount = 101; static = 1; ea = 64; size = 8; sp = 4096 });
  add_chunk ~kind:'\xA7' ~n:2 ~first_icount:100 (Buffer.contents payload);
  (* body-def chunk: the loop body [Load; Store] stored once, encoded
     relative to its own first icount (110), prefixed by its event count *)
  let body = Buffer.create 32 in
  Tq_util.Leb128.write_u body 2 (* body length B *);
  let st = Event.fresh_state ~icount:110 () in
  Event.encode st body (Event.Load { icount = 110; static = 2; ea = 200; size = 4; sp = 4096 });
  Event.encode st body (Event.Store { icount = 111; static = 2; ea = 999; size = 4; sp = 4096 });
  let body = Buffer.contents body in
  let def_off = Buffer.length buf in
  add_chunk ~kind:'\xA9' ~n:0 ~first_icount:110 body;
  (* repeat chunk: 3 iterations of the def's body.
     Loads at ea 200,208,216 (affine +8); stores at 999,1000,900 (literal).
     icounts advance by 10 per iteration; sp fixed (affine 0). *)
  let payload = Buffer.create 64 in
  Tq_util.Leb128.write_u payload 2 (* body length B *);
  Tq_util.Leb128.write_u payload 3 (* iters *);
  Tq_util.Leb128.write_u payload def_off (* bref: the def's file offset *);
  Tq_util.Leb128.write_u payload (Tq_util.Crc32.digest body) (* bcrc *);
  (* field tables, canonical order: Load.icount, Load.ea, Load.sp,
     Store.icount, Store.ea, Store.sp.  Mode bitmap first: 6 fields, one
     byte, bit 4 (Store.ea) set = literal. *)
  Buffer.add_uint8 payload 0b0001_0000;
  Tq_util.Leb128.write_s payload 10;  (* Load.icount +10 *)
  Tq_util.Leb128.write_s payload 8;   (* Load.ea +8 *)
  Tq_util.Leb128.write_s payload 0;   (* Load.sp +0 *)
  Tq_util.Leb128.write_s payload 10;  (* Store.icount +10 *)
  Tq_util.Leb128.write_s payload 1; Tq_util.Leb128.write_s payload (-100);
                                      (* Store.ea literal: +1, -100 *)
  Tq_util.Leb128.write_s payload 0;   (* Store.sp +0 *)
  add_chunk ~kind:'\xA8' ~n:6 ~first_icount:110 (Buffer.contents payload);
  (* index + trailer *)
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

let test_v4_golden_fixture () =
  let raw = build_v4_golden () in
  let r = Reader.of_string raw in
  Alcotest.(check int) "version" 4 (Reader.version r);
  Alcotest.(check int) "n_events (raw)" 8 (Reader.n_events r);
  Alcotest.(check int) "stored events" 4 (Reader.stored_events r);
  Alcotest.(check int) "plain chunks" 1 (Reader.plain_chunks r);
  Alcotest.(check int) "body-def chunks" 1 (Reader.body_chunks r);
  Alcotest.(check int) "repeat chunks" 1 (Reader.repeat_chunks r);
  let expect =
    [
      Event.Rtn_entry { icount = 100; routine = 1; sp = 4096 };
      Event.Load { icount = 101; static = 1; ea = 64; size = 8; sp = 4096 };
      Event.Load { icount = 110; static = 2; ea = 200; size = 4; sp = 4096 };
      Event.Store { icount = 111; static = 2; ea = 999; size = 4; sp = 4096 };
      Event.Load { icount = 120; static = 2; ea = 208; size = 4; sp = 4096 };
      Event.Store { icount = 121; static = 2; ea = 1000; size = 4; sp = 4096 };
      Event.Load { icount = 130; static = 2; ea = 216; size = 4; sp = 4096 };
      Event.Store { icount = 131; static = 2; ea = 900; size = 4; sp = 4096 };
    ]
  in
  Alcotest.(check bool) "golden stream decodes exactly" true
    (events_of r = expect);
  (* the def decodes to nothing of its own; the repeat decodes in
     isolation (chunk cache path) by resolving it *)
  Alcotest.(check int) "body def decodes to no events" 0
    (Array.length (Reader.chunk_events r 1));
  Alcotest.(check int) "repeat chunk decodes standalone" 6
    (Array.length (Reader.chunk_events r 2));
  (* and salvage of the same image finds all three chunks *)
  let s = Reader.of_string ~mode:Reader.Salvage raw in
  Alcotest.(check int) "salvage keeps all chunks" 3 (Reader.n_chunks s);
  Alcotest.(check bool) "salvage stream identical" true (events_of s = expect)

(* The v4 writer's own output for a fixed stream is pinned byte-for-byte
   against the same hand-assembly — writer drift breaks old readers. *)
let test_v4_writer_matches_golden () =
  (* feed the writer the exact stream the golden fixture encodes; force the
     repeat record through emit_repeat-equivalent squash output by using a
     Squash instance directly *)
  let w_chunks = ref [] in
  let out =
    {
      Squash.out_plain = (fun ev -> w_chunks := `P ev :: !w_chunks);
      Squash.out_repeat =
        (fun ~body ~iters ~fields ->
          w_chunks := `R (body, iters, fields) :: !w_chunks);
    }
  in
  let sq = Squash.create ~min_iters:2 ~min_raw:4 out in
  (* 3 iterations of [Block_exec; Load] with affine ea *)
  for i = 0 to 2 do
    Squash.feed_boundary sq ~key:42
      (Event.Block_exec { icount = i * 10; addr = 0x40; n = 5 });
    Squash.feed sq
      (Event.Load
         { icount = (i * 10) + 1; static = 3; ea = 100 + (i * 8); size = 4;
           sp = 256 })
  done;
  Squash.flush sq;
  let repeats =
    List.filter_map
      (function `R (b, i, f) -> Some (b, i, f) | `P _ -> None)
      !w_chunks
  in
  match repeats with
  | [ (body, iters, fields) ] ->
      Alcotest.(check int) "body length" 2 (Array.length body);
      Alcotest.(check int) "iterations" 3 iters;
      (* fields: Block_exec.icount, Load.icount, Load.ea, Load.sp *)
      Alcotest.(check int) "field count" 4 (Array.length fields);
      Alcotest.(check bool) "all affine" true
        (Array.for_all (function Squash.Affine _ -> true | _ -> false) fields);
      (match fields.(2) with
      | Squash.Affine s -> Alcotest.(check int) "ea stride" 8 s
      | _ -> Alcotest.fail "ea field not affine")
  | l -> Alcotest.failf "expected exactly one repeat record, got %d" (List.length l)

let suites =
  [
    ( "compress",
      [
        Alcotest.test_case "wfs: stream identity + >=4x ratio" `Quick
          test_wfs_identity_and_ratio;
        Alcotest.test_case "reader raw/stored accounting" `Quick
          test_reader_stats;
        Alcotest.test_case "seek agrees with uncompressed" `Quick
          test_compressed_seek;
        Alcotest.test_case "reports byte-identical (seq + parallel)" `Quick
          test_report_identity;
        QCheck_alcotest.to_alcotest qcheck_compress_roundtrip;
        Alcotest.test_case "affine loop commits repeat chunks" `Quick
          test_affine_loop_compresses;
        QCheck_alcotest.to_alcotest qcheck_minic_record_identity;
        QCheck_alcotest.to_alcotest qcheck_v4_salvage_identity;
        Alcotest.test_case "torn repeat chunk: salvage resyncs" `Quick
          test_torn_repeat_chunk_salvage;
        Alcotest.test_case "torn body def: salvage drops dependents" `Quick
          test_torn_body_def_salvage;
        Alcotest.test_case "flipped chunk kind fails CRC" `Quick
          test_kind_flip_detected;
        Alcotest.test_case "golden v4 fixture decodes" `Quick
          test_v4_golden_fixture;
        Alcotest.test_case "squash emits expected repeat record" `Quick
          test_v4_writer_matches_golden;
      ] );
  ]
