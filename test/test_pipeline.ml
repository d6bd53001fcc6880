(* The live pipeline's contract: wherever a sink runs — inline on the
   engine's domain or on a consumer domain fed by batches — it sees the
   same events, so every report is byte-identical to the inline path and to
   replay of a recording; a raising sink or a failing run drains and joins
   before [Engine.run] lets the exception out; and a short run spawns no
   domain at all. *)

open Tq_vm
open Tq_dbi
module Probe = Tq_trace.Probe
module Reader = Tq_trace.Reader
module Replay = Tq_trace.Replay
module Toolset = Tq_serve.Toolset

let slice = 2_000
let period = 2_000
let multicore = Domain.recommended_domain_count () > 1

(* A sink that wants nothing and outweighs everything: the split puts it
   alone in a consumer group and every other sink inline in group 0, which
   is how these tests reach the inline path through the public API.  It is
   never fed, so no domain is spawned for it. *)
let ballast eng = Probe.attach ~name:"ballast" ~wants:[] ~cost:infinity eng ignore

(* Attach the named tool live; returns its report renderer. *)
let attach eng = function
  | "tquad" ->
      let t = Tq_tquad.Tquad.attach ~slice_interval:slice eng in
      fun () -> Toolset.render_tquad ~slice t
  | "quad" ->
      let q = Tq_quad.Quad.attach eng in
      fun () -> Toolset.render_quad q
  | "gprof" ->
      let g = Tq_gprofsim.Gprofsim.attach ~period eng in
      fun () -> Toolset.render_gprof g
  | "mix" ->
      let mix = Tq_prof.Ins_mix.attach eng in
      fun () -> Toolset.render_mix mix
  | "cache" ->
      let c = Tq_prof.Cache_sim.attach eng in
      fun () -> Tq_prof.Cache_sim.render c
  | "footprint" ->
      let f = Tq_prof.Footprint.attach eng in
      fun () -> Tq_prof.Footprint.render f
  | other -> Alcotest.failf "unknown tool %s" other

type subject = {
  label : string;
  prog : Program.t;
  vfs : unit -> Vfs.t;
  fuel : int;
}

let wfs_tiny =
  lazy
    (let scen = Tq_wfs.Scenario.tiny in
     {
       label = "wfs tiny";
       prog = Tq_wfs.Harness.compile scen;
       vfs = (fun () -> Tq_wfs.Harness.make_vfs scen);
       fuel = Tq_wfs.Harness.fuel scen;
     })

let image_app =
  lazy
    {
      label = "image pipeline";
      prog = Tq_apps.Apps.image_pipeline_program ~width:32 ~height:32 ();
      vfs = Vfs.create;
      fuel = 200_000_000;
    }

let engine s = Engine.create (Machine.create ~vfs:(s.vfs ()) s.prog)

(* One live run of [tools]; reports in [tools] order plus the pipeline's
   shape. *)
let live ?(inline = false) s tools =
  let eng = engine s in
  if inline then ballast eng;
  let renders = List.map (attach eng) tools in
  Engine.run ~fuel:s.fuel eng;
  (List.map (fun r -> r ()) renders, Probe.pipeline eng)

let replayed s =
  let path = Filename.temp_file "tq_pipe" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore (Probe.record ~fuel:s.fuel (engine s) ~path : int);
      let jobs =
        List.map
          (fun name ->
            Result.get_ok (Toolset.job ~prog:s.prog ~slice ~period name))
          Toolset.names
      in
      List.map
        (fun (name, out) ->
          match out with
          | Ok r -> (name, r)
          | Error f -> Alcotest.failf "%s: %s" name (Replay.failure_message f))
        (Replay.sequential (Reader.load path) jobs))

(* gprof and mix alone cost less than the hand-off and stay inline; with
   tquad they join its consumer group, which keeps their consumer path
   covered. *)
let cheap_alone = function [ ("gprof" | "mix") ] -> true | _ -> false

let tool_sets =
  List.map (fun t -> [ t ]) Toolset.names
  @ [ [ "tquad"; "quad" ]; [ "tquad"; "gprof"; "mix" ] ]

let test_identity subject () =
  let s = Lazy.force subject in
  let replay = replayed s in
  List.iter
    (fun tools ->
      let what = s.label ^ ", " ^ String.concat "+" tools in
      let piped, shape = live s tools in
      let inline, _ = live ~inline:true s tools in
      List.iter2
        (fun tool (p, i) ->
          Alcotest.(check string) (what ^ ": " ^ tool ^ " pipelined = inline") i p;
          Alcotest.(check string)
            (what ^ ": " ^ tool ^ " pipelined = replay")
            (List.assoc tool replay) p)
        tools (List.combine piped inline);
      (* the heaviest tool leaves the engine's domain *)
      match shape with
      | Some _ when cheap_alone tools -> ()
      | Some p when multicore ->
          Alcotest.(check bool) (what ^ ": a consumer group ran") true
            (List.length p.Probe.groups >= 2 && p.Probe.consumer_domains >= 1)
      | Some _ -> ()
      | None -> Alcotest.failf "%s: no pipeline reported" what)
    tool_sets

(* The plan pipelines only when the hand-off costs less than the work it
   overlaps: a cheap lone sink stays inline, while tquad+quad and the
   recorder keep their consumer groups. *)
let test_plan_pays () =
  let s = Lazy.force wfs_tiny in
  let groups_of tools =
    match live s tools with
    | _, Some p -> p
    | _, None -> Alcotest.failf "%s: no pipeline" (String.concat "+" tools)
  in
  List.iter
    (fun tool ->
      let p = groups_of [ tool ] in
      Alcotest.(check int) (tool ^ " alone: no consumer domain") 0
        p.Probe.consumer_domains;
      Alcotest.(check (list (list string)))
        (tool ^ " alone: one inline group") [ [ tool ] ] p.Probe.groups)
    [ "gprof"; "mix" ];
  if multicore then begin
    let p = groups_of [ "tquad"; "quad" ] in
    Alcotest.(check (list (list string))) "tquad+quad: quad leaves"
      [ [ "tquad" ]; [ "quad" ] ] p.Probe.groups;
    Alcotest.(check bool) "tquad+quad: a consumer domain ran" true
      (p.Probe.consumer_domains >= 1);
    let eng = engine s in
    let path = Filename.temp_file "tq_pipe" ".trc" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () -> ignore (Probe.record ~fuel:s.fuel eng ~path : int));
    match Probe.pipeline eng with
    | Some p ->
        Alcotest.(check (list (list string))) "record: the writer leaves"
          [ []; [ "writer" ] ] p.Probe.groups
    | None -> Alcotest.fail "record: no pipeline"
  end

exception Sink_broke of int

(* A consumer-group sink raises mid-run: [Engine.run] raises that
   exception, and once it has, nothing consumes any more. *)
let test_sink_failure () =
  let s = Lazy.force wfs_tiny in
  let eng = engine s in
  let seen = Atomic.make 0 in
  Probe.attach ~name:"breaks" ~cost:1. eng (fun _ ->
      let n = Atomic.fetch_and_add seen 1 in
      if n = 50_000 then raise (Sink_broke n));
  Alcotest.check_raises "run raises the sink's exception" (Sink_broke 50_000)
    (fun () -> Engine.run ~fuel:s.fuel eng);
  let after = Atomic.get seen in
  Unix.sleepf 0.05;
  Alcotest.(check int) "no consumer still running" after (Atomic.get seen);
  Alcotest.(check int) "the failing sink stopped" 50_001 after;
  match Probe.pipeline eng with
  | Some p when multicore ->
      Alcotest.(check (list (list string))) "it ran on a consumer domain"
        [ []; [ "breaks" ] ] p.Probe.groups
  | _ -> ()

(* Events collected by one pipelined and one inline sink of the same run:
   on [Out_of_fuel] or a trap, both hold every event emitted before the
   exception. *)
let drained_on_failure ~fuel prog exn_ok =
  let eng = Engine.create (Machine.create prog) in
  let inline = ref [] and piped = ref [] in
  (* the piped sink alone outweighs the probe, so it leaves group 0 *)
  Probe.attach ~name:"piped" ~cost:infinity eng (fun ev -> piped := ev :: !piped);
  Probe.attach ~name:"inline" ~cost:0. eng (fun ev -> inline := ev :: !inline);
  (match Engine.run ~fuel eng with
  | () -> Alcotest.fail "the run should have failed"
  | exception e when exn_ok e -> ()
  | exception e -> Alcotest.failf "unexpected %s" (Printexc.to_string e));
  Alcotest.(check bool) "events were emitted" true (List.length !inline > 0);
  Alcotest.(check bool) "every emitted event consumed" true (!piped = !inline);
  match Probe.pipeline eng with
  | Some p when multicore ->
      Alcotest.(check (list (list string)))
        "groups" [ [ "inline" ]; [ "piped" ] ] p.Probe.groups
  | _ -> ()

(* Eight passes over an array (far more than one batch of events), then a
   division by zero: a trap with a full fuel budget, [Out_of_fuel] with a
   small one. *)
let looping_src =
  "int a[4096]; int zero;\n\
   int main() {\n\
  \  int s; s = 0;\n\
  \  for (int r = 0; r < 8; r++)\n\
  \    for (int i = 0; i < 4096; i++) { a[i] = i + r; s += a[i]; }\n\
  \  return s / zero;\n\
   }\n"

let looping =
  lazy
    (Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"loop" looping_src ])

let test_drain_out_of_fuel () =
  drained_on_failure ~fuel:200_000 (Lazy.force looping) (function
    | Tq_vm.Executor.Out_of_fuel _ -> true
    | _ -> false)

let test_drain_trap () =
  drained_on_failure ~fuel:100_000_000 (Lazy.force looping) (function
    | Machine.Trap _ -> true
    | _ -> false)

(* The pipe is reset after every run: a run stopped by [Out_of_fuel] and
   resumed on the same engine feeds the pipelined sink the same stream as
   the inline one. *)
let test_resumed_run () =
  let eng = Engine.create (Machine.create (Lazy.force looping)) in
  let inline = ref [] and piped = ref [] in
  Probe.attach ~name:"piped" ~cost:infinity eng (fun ev -> piped := ev :: !piped);
  Probe.attach ~name:"inline" eng (fun ev -> inline := ev :: !inline);
  (match Engine.run ~fuel:200_000 eng with
  | exception Tq_vm.Executor.Out_of_fuel _ -> ()
  | () -> Alcotest.fail "the first run should run out of fuel");
  let first = List.length !inline in
  (match Engine.run ~fuel:100_000_000 eng with
  | exception Machine.Trap _ -> ()
  | () -> Alcotest.fail "the resumed run should trap");
  Alcotest.(check bool) "the resumed run emitted more" true
    (List.length !inline > first);
  Alcotest.(check bool) "same stream across both runs" true (!piped = !inline)

(* A run that never fills one batch consumes it in the fini, on the
   engine's own domain. *)
let test_short_run_spawns_nothing () =
  let prog =
    Tq_rt.Rt.link
      [
        Tq_minic.Driver.compile_unit ~image:"short"
          "int a[8]; int main() { for (int i = 0; i < 8; i++) a[i] = i; return 0; }";
      ]
  in
  let eng = Engine.create (Machine.create prog) in
  let n = ref 0 in
  Probe.attach ~name:"count" ~cost:infinity eng (fun _ -> incr n);
  Engine.run eng;
  Alcotest.(check bool) "events consumed" true (!n > 0);
  match Probe.pipeline eng with
  | None -> Alcotest.fail "no pipeline reported"
  | Some p ->
      Alcotest.(check int) "no consumer domain" 0 p.Probe.consumer_domains;
      Alcotest.(check int) "no batch handed off" 0 p.Probe.batches

let suites =
  [
    ( "pipeline",
      [
        Alcotest.test_case "wfs tiny: pipelined = inline = replay" `Quick
          (test_identity wfs_tiny);
        Alcotest.test_case "image pipeline: pipelined = inline = replay" `Quick
          (test_identity image_app);
        Alcotest.test_case "a cheap lone sink stays inline" `Quick
          test_plan_pays;
        Alcotest.test_case "consumer sink failure raises from run" `Quick
          test_sink_failure;
        Alcotest.test_case "out of fuel drains every emitted event" `Quick
          test_drain_out_of_fuel;
        Alcotest.test_case "trap drains every emitted event" `Quick
          test_drain_trap;
        Alcotest.test_case "short run spawns no domain" `Quick
          test_short_run_spawns_nothing;
        Alcotest.test_case "a resumed run reuses the reset pipe" `Quick
          test_resumed_run;
      ] );
  ]
