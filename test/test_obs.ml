(* lib/obs: JSON codec round-trips, metrics registry semantics, span
   recording, manifest schema validation, and the replay timing hooks the
   manifest's ["replay"] section is built from. *)

module Json = Tq_obs.Json
module Metrics = Tq_obs.Metrics
module Span = Tq_obs.Span
module Manifest = Tq_obs.Manifest
module Event = Tq_trace.Event
module Writer = Tq_trace.Writer
module Reader = Tq_trace.Reader
module Replay = Tq_trace.Replay

(* ---------- JSON ---------- *)

(* Generated floats are multiples of 1/16 — exactly representable in binary,
   so print-then-parse must reproduce them bit-for-bit. *)
let arb_json =
  let open QCheck in
  let leaf =
    Gen.oneof
      [ Gen.return Json.Null;
        Gen.map (fun b -> Json.Bool b) Gen.bool;
        Gen.map (fun i -> Json.Int i) Gen.small_signed_int;
        Gen.map
          (fun k -> Json.Float (float_of_int k /. 16.))
          (Gen.int_range (-4096) 4096);
        Gen.map (fun s -> Json.Str s) Gen.small_string ]
  in
  let gen =
    Gen.sized (fun n ->
        Gen.fix
          (fun self n ->
            if n <= 0 then leaf
            else
              Gen.oneof
                [ leaf;
                  Gen.map (fun l -> Json.List l)
                    (Gen.list_size (Gen.int_bound 4) (self (n / 2)));
                  Gen.map (fun l -> Json.Obj l)
                    (Gen.list_size (Gen.int_bound 4)
                       (Gen.pair Gen.small_string (self (n / 2)))) ])
          (min n 6))
  in
  make gen

let qcheck_json_roundtrip =
  QCheck.Test.make ~name:"json: of_string o to_string = id" ~count:300 arb_json
    (fun v -> Json.of_string (Json.to_string v) = v)

let test_json_int_float_distinct () =
  (* the schema relies on Int vs Float surviving a round-trip *)
  let check v =
    Alcotest.(check bool)
      (Json.to_string v) true
      (Json.of_string (Json.to_string v) = v)
  in
  check (Json.Int 1);
  check (Json.Float 1.);
  check (Json.Float (-0.5));
  check (Json.Int max_int);
  Alcotest.(check string) "float prints with point" "1.0\n"
    (Json.to_string (Json.Float 1.));
  Alcotest.(check string) "int prints bare" "1\n" (Json.to_string (Json.Int 1))

let test_json_escapes () =
  let v = Json.Str "a\"b\\c\n\t\x01é" in
  Alcotest.(check bool) "escaped string round-trips" true
    (Json.of_string (Json.to_string v) = v);
  let parsed = Json.of_string {|"éA"|} in
  Alcotest.(check bool) "unicode escapes decode to UTF-8" true
    (parsed = Json.Str "\xc3\xa9A")

let test_json_parse_errors () =
  let bad s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | v -> Alcotest.failf "parsed %S as %s" s (Json.to_string v)
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1,}";
  bad "nul";
  bad "1 garbage";
  bad "\"unterminated";
  bad "01"

(* ---------- metrics ---------- *)

let test_metrics_enabled () =
  let r = Metrics.create () in
  let c = Metrics.counter r ~unit_:"events" "events_out" in
  Metrics.add c 5;
  Metrics.incr c;
  Alcotest.(check int) "counter accumulates" 6 (Metrics.counter_value c);
  let c' = Metrics.counter r "events_out" in
  Metrics.add c' 4;
  Alcotest.(check int) "same name, same instrument" 10 (Metrics.counter_value c);
  let g = Metrics.gauge r "depth" in
  Metrics.set g 3.5;
  Metrics.set g 2.0;
  Alcotest.(check (float 0.)) "gauge is last-value-wins" 2.0
    (Metrics.gauge_value g);
  let t = Metrics.timer r "phase" in
  Metrics.observe t 0.25;
  Metrics.observe t 0.75;
  let v = Metrics.time t (fun () -> 42) in
  Alcotest.(check int) "time returns the thunk's value" 42 v;
  Alcotest.(check int) "timer count" 3 (Metrics.timer_count t);
  Alcotest.(check bool) "timer total >= observed" true
    (Metrics.timer_total t >= 1.0)

let test_metrics_disabled () =
  let c = Metrics.counter Metrics.disabled "dead" in
  Metrics.add c 1_000;
  Metrics.incr c;
  Alcotest.(check int) "dead counter never accumulates" 0
    (Metrics.counter_value c);
  let g = Metrics.gauge Metrics.disabled "dead_g" in
  Metrics.set g 9.9;
  Alcotest.(check (float 0.)) "dead gauge stays zero" 0. (Metrics.gauge_value g);
  let t = Metrics.timer Metrics.disabled "dead_t" in
  Metrics.observe t 1.0;
  Alcotest.(check int) "dead timer records nothing" 0 (Metrics.timer_count t);
  Alcotest.(check bool) "disabled registry reports disabled" false
    (Metrics.is_enabled Metrics.disabled)

let test_metrics_to_json () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r ~unit_:"bytes" "written") 128;
  Metrics.set (Metrics.gauge r "ratio") 0.5;
  Metrics.observe (Metrics.timer r "stage") 0.125;
  let j = Metrics.to_json r in
  let get path =
    List.fold_left
      (fun acc k -> Option.bind acc (Json.member k))
      (Some j) path
  in
  Alcotest.(check bool) "counter value" true
    (get [ "counters"; "written"; "value" ] = Some (Json.Int 128));
  Alcotest.(check bool) "counter unit" true
    (get [ "counters"; "written"; "unit" ] = Some (Json.Str "bytes"));
  Alcotest.(check bool) "gauge value" true
    (get [ "gauges"; "ratio"; "value" ] = Some (Json.Float 0.5));
  Alcotest.(check bool) "timer count" true
    (get [ "timers"; "stage"; "count" ] = Some (Json.Int 1))

(* ---------- spans ---------- *)

let test_span_recording () =
  let r = Span.create () in
  let v =
    Span.with_span r "outer" (fun () ->
        Span.with_span r ~attrs:(fun () -> [ ("n", 7) ]) "inner" (fun () -> ());
        17)
  in
  Alcotest.(check int) "with_span returns the thunk's value" 17 v;
  let spans = Span.spans r in
  Alcotest.(check int) "two spans recorded" 2 (List.length spans);
  let find name = List.find (fun s -> s.Span.name = name) spans in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check bool) "inner attrs recorded" true
    (inner.Span.attrs = [ ("n", 7) ]);
  Alcotest.(check bool) "outer attrs empty" true (outer.Span.attrs = []);
  (* timestamps at gettimeofday resolution can tie, so only weak ordering
     holds *)
  Alcotest.(check bool) "outer starts no later than inner" true
    (outer.Span.start_s <= inner.Span.start_s);
  Alcotest.(check bool) "outer contains inner" true
    (outer.Span.wall_s >= inner.Span.wall_s)

let test_span_failure () =
  let r = Span.create () in
  (match Span.with_span r "failing" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure msg -> Alcotest.(check string) "re-raised" "boom" msg);
  match Span.spans r with
  | [ s ] ->
      Alcotest.(check bool) "failure attr recorded" true
        (s.Span.attrs = [ ("failed", 1) ])
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_span_disabled () =
  Alcotest.(check int) "disabled recorder stores nothing" 0
    (List.length (Span.spans Span.disabled));
  let v = Span.with_span Span.disabled "x" (fun () -> 3) in
  Alcotest.(check int) "disabled with_span is the call" 3 v;
  Alcotest.(check int) "still nothing stored" 0
    (List.length (Span.spans Span.disabled))

(* ---------- manifests ---------- *)

let sample_manifest () =
  let spans = Span.create () in
  let metrics = Metrics.create () in
  Span.with_span spans ~attrs:(fun () -> [ ("instructions", 42) ]) "execute"
    (fun () -> ());
  Metrics.add (Metrics.counter metrics ~unit_:"events" "events_out") 9;
  Manifest.make ~tool:"tquad" ~subcommand:"test"
    ~argv:[ "tquad"; "test" ]
    ~extra:
      [ ( "engine",
          Json.Obj [ ("lookups", Json.Int 3); ("chain_hits", Json.Int 2) ] );
        ( "trace",
          Json.Obj
            [ ("version", Json.Int 3);
              ("events", Json.Int 9);
              ("fingerprint", Json.Str "00000000deadbeef");
              ("crc_verify_s", Json.Float 0.125) ] );
        ( "replay",
          Json.Obj
            [ ("domains", Json.Int 2);
              ( "groups",
                Json.List
                  [ Json.List [ Json.Str "tquad" ];
                    Json.List [ Json.Str "quad"; Json.Str "cache" ] ] );
              ("chunks", Json.Int 4);
              ("events", Json.Int 9);
              ( "stage_s",
                Json.Obj [ ("crc", Json.Float 0.25); ("passes", Json.Float 1.5) ]
              );
              ( "timings",
                Json.List
                  [ Json.Obj
                      [ ("domain", Json.Int 0);
                        ("jobs", Json.List [ Json.Str "tquad" ]);
                        ("wall_s", Json.Float 0.5) ] ] ) ] ) ]
    spans metrics

let test_manifest_roundtrip () =
  let doc = sample_manifest () in
  (match Manifest.validate doc with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fresh manifest invalid: %s" msg);
  let path = Filename.temp_file "tq_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Manifest.write path doc;
      let loaded = Manifest.load path in
      Alcotest.(check bool) "write o load = id" true (loaded = doc);
      match Manifest.validate loaded with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "loaded manifest invalid: %s" msg)

let test_manifest_extra_collision () =
  let spans = Span.create () and metrics = Metrics.create () in
  let mk extra () =
    ignore (Manifest.make ~tool:"t" ~subcommand:"s" ~extra spans metrics)
  in
  Alcotest.check_raises "required-member collision"
    (Invalid_argument "Manifest.make: duplicate section \"spans\"")
    (mk [ ("spans", Json.Null) ]);
  Alcotest.check_raises "repeated section"
    (Invalid_argument "Manifest.make: duplicate section \"engine\"")
    (mk [ ("engine", Json.Obj []); ("engine", Json.Obj []) ])

let test_manifest_validate_negative () =
  let invalid doc =
    match Manifest.validate doc with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "accepted %s" (Json.to_string doc)
  in
  invalid Json.Null;
  invalid (Json.Obj []);
  let base =
    match sample_manifest () with Json.Obj m -> m | _ -> assert false
  in
  let with_member k v =
    Json.Obj (List.map (fun (k', v') -> (k', if k' = k then v else v')) base)
  in
  invalid (with_member "schema_version" (Json.Int 999));
  invalid (with_member "tool" (Json.Int 1));
  invalid (with_member "argv" (Json.List [ Json.Int 1 ]));
  invalid (with_member "spans" (Json.List [ Json.Obj [] ]));
  invalid (with_member "metrics" (Json.Obj []));
  invalid (with_member "engine" (Json.Obj [ ("lookups", Json.Str "three") ]));
  invalid (with_member "trace" (Json.Obj [ ("events", Json.Str "many") ]));
  invalid
    (with_member "replay" (Json.Obj [ ("timings", Json.List [ Json.Obj [] ]) ]));
  invalid
    (with_member "replay"
       (Json.Obj [ ("groups", Json.List [ Json.Str "tquad" ]) ]));
  invalid
    (with_member "replay"
       (Json.Obj [ ("stage_s", Json.Obj [ ("crc", Json.Str "fast") ]) ]));
  (* unknown sections and unknown members of known sections are allowed *)
  match
    Manifest.validate
      (Json.Obj (base @ [ ("custom_section", Json.Str "anything") ]))
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "unknown section rejected: %s" msg

let test_cli_manifest_validates () =
  (* a manifest produced by the real pipeline (wfs tiny under record) must
     satisfy the schema the tests enforce *)
  let scen = Tq_wfs.Scenario.tiny in
  let eng =
    Tq_dbi.Engine.create
      (Tq_vm.Machine.create
         ~vfs:(Tq_wfs.Harness.make_vfs scen)
         (Tq_wfs.Harness.compile scen))
  in
  let spans = Span.create () and metrics = Metrics.create () in
  let path = Filename.temp_file "tq_obs" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let events =
        Span.with_span spans "record" (fun () ->
            Tq_trace.Probe.record ~fuel:(Tq_wfs.Harness.fuel scen) eng ~path)
      in
      Metrics.add (Metrics.counter metrics ~unit_:"events" "events_out") events;
      let r = Reader.load path in
      let s = Tq_dbi.Engine.stats eng in
      let doc =
        Manifest.make ~tool:"tquad" ~subcommand:"record"
          ~argv:[ "tquad"; "record" ]
          ~extra:
            [ ( "engine",
                Json.Obj
                  [ ("lookups", Json.Int s.Tq_dbi.Engine.lookups);
                    ("chain_hits", Json.Int s.Tq_dbi.Engine.chain_hits) ] );
              ( "trace",
                Json.Obj
                  [ ("version", Json.Int (Reader.version r));
                    ("events", Json.Int (Reader.n_events r));
                    ("chunks", Json.Int (Reader.n_chunks r));
                    ("bytes", Json.Int (Reader.byte_size r)) ] ) ]
          spans metrics
      in
      (match Manifest.validate doc with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "pipeline manifest invalid: %s" msg);
      Alcotest.(check bool) "recorded events" true (events > 0))

(* ---------- reader CRC check / replay timings ---------- *)

let write_trace path =
  Writer.with_file ~chunk_bytes:128 path (fun w ->
      for i = 1 to 200 do
        Writer.emit w
          (Event.Load { icount = i; static = 0; ea = 8 * i; size = 4; sp = 0 })
      done;
      Writer.emit w (Event.End { icount = 201 }))

let test_crc_check () =
  let path = Filename.temp_file "tq_obs" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_trace path;
      let r = Reader.load path in
      Alcotest.(check int) "checks every chunk" (Reader.n_chunks r)
        (Reader.crc_check r);
      Alcotest.(check bool) "several chunks present" true
        (Reader.n_chunks r > 1);
      (* disjoint ranges, as parallel replay splits them across domains *)
      let n = Reader.n_chunks r and r2 = Reader.load path in
      let mid = n / 2 in
      Alcotest.(check int) "first half" mid (Reader.crc_check ~hi:mid r2);
      Alcotest.(check bool) "the second half not yet all verified" true
        (Reader.verified_chunks r2 < n);
      Alcotest.(check int) "second half" (n - mid)
        (Reader.crc_check ~lo:mid r2);
      Alcotest.(check int) "now all verified" n (Reader.verified_chunks r2);
      Alcotest.check_raises "range past the end"
        (Invalid_argument "Trace.Reader.crc_check: chunk range out of bounds")
        (fun () -> ignore (Reader.crc_check ~lo:1 ~hi:(n + 1) r2)))

let test_crc_check_corrupt () =
  let path = Filename.temp_file "tq_obs" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_trace path;
      let raw = In_channel.with_open_bin path In_channel.input_all in
      (* flip one payload byte mid-file; the lazily-verifying loader accepts
         it, crc_check must not *)
      let b = Bytes.of_string raw in
      let pos = Bytes.length b / 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      let r = Reader.of_string ~verify:false (Bytes.to_string b) in
      match Reader.crc_check r with
      | n -> Alcotest.failf "corrupt trace passed crc_check (%d chunks)" n
      | exception Reader.Format_error _ -> ())

let count_jobs names =
  List.map
    (fun name ->
      Replay.job name (fun () ->
          let n = ref 0 in
          ((fun _ -> incr n), fun () -> string_of_int !n)))
    names

let test_sequential_timings () =
  let path = Filename.temp_file "tq_obs" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_trace path;
      let r = Reader.load path in
      let timings = ref [] in
      let results =
        Replay.sequential
          ~timings:(fun ts -> timings := ts)
          r
          (count_jobs [ "a"; "b" ])
      in
      Alcotest.(check int) "one timing per job" 2 (List.length !timings);
      List.iter
        (fun (t : Replay.domain_timing) ->
          Alcotest.(check int) "sequential runs on domain 0" 0 t.Replay.domain;
          Alcotest.(check bool) "wall time non-negative" true (t.wall_s >= 0.))
        !timings;
      Alcotest.(check bool) "job names recorded in run order" true
        (List.map (fun (t : Replay.domain_timing) -> t.jobs) !timings
        = [ [ "a" ]; [ "b" ] ]);
      Alcotest.(check bool) "all jobs saw all events" true
        (List.for_all (fun (_, o) -> o = Ok "201") results))

let test_parallel_timings () =
  let path = Filename.temp_file "tq_obs" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_trace path;
      let r = Reader.load path in
      let timings = ref [] in
      let results =
        Replay.parallel ~domains:2
          ~timings:(fun ts -> timings := ts)
          r
          (count_jobs [ "a"; "b"; "c" ])
      in
      Alcotest.(check bool) "all jobs complete" true
        (List.for_all (fun (_, o) -> o = Ok "201") results);
      let covered =
        List.concat_map (fun (t : Replay.domain_timing) -> t.jobs) !timings
        |> List.sort compare
      in
      Alcotest.(check (list string)) "every job appears in exactly one group"
        [ "a"; "b"; "c" ] covered;
      Alcotest.(check bool) "each domain lists its own non-empty group" true
        (List.for_all (fun (t : Replay.domain_timing) -> t.jobs <> []) !timings);
      Alcotest.(check (list int)) "one row per domain used"
        (List.init (min 2 (Domain.recommended_domain_count ())) Fun.id)
        (List.map (fun (t : Replay.domain_timing) -> t.domain) !timings);
      List.iter
        (fun (t : Replay.domain_timing) ->
          Alcotest.(check bool) "wall time non-negative" true (t.wall_s >= 0.))
        !timings)

let suites =
  [ ( "obs",
      [ QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
        Alcotest.test_case "json: int/float distinction survives" `Quick
          test_json_int_float_distinct;
        Alcotest.test_case "json: string escapes" `Quick test_json_escapes;
        Alcotest.test_case "json: parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "metrics: enabled registry accumulates" `Quick
          test_metrics_enabled;
        Alcotest.test_case "metrics: disabled registry is dead" `Quick
          test_metrics_disabled;
        Alcotest.test_case "metrics: to_json shape" `Quick test_metrics_to_json;
        Alcotest.test_case "span: nested recording" `Quick test_span_recording;
        Alcotest.test_case "span: failure recorded and re-raised" `Quick
          test_span_failure;
        Alcotest.test_case "span: disabled recorder" `Quick test_span_disabled;
        Alcotest.test_case "manifest: make/write/load/validate round-trip"
          `Quick test_manifest_roundtrip;
        Alcotest.test_case "manifest: extra-section collisions" `Quick
          test_manifest_extra_collision;
        Alcotest.test_case "manifest: validation rejects bad shapes" `Quick
          test_manifest_validate_negative;
        Alcotest.test_case "manifest: real pipeline manifest validates" `Slow
          test_cli_manifest_validates;
        Alcotest.test_case "reader: crc_check counts chunks" `Quick
          test_crc_check;
        Alcotest.test_case "reader: crc_check catches corruption" `Quick
          test_crc_check_corrupt;
        Alcotest.test_case "replay: sequential timings" `Quick
          test_sequential_timings;
        Alcotest.test_case "replay: parallel timings" `Quick
          test_parallel_timings ] ) ]
