(* Per-layer measurements for the traced run.  Each one times calls into a
   layer's public functions from here, never from inside the library. *)

open Common
module Event = Tq_trace.Event
module Reader = Tq_trace.Reader
module Replay = Tq_trace.Replay
module Probe = Tq_trace.Probe
module Toolset = Tq_serve.Toolset
module Tquad = Tq_tquad.Tquad
module Quad = Tq_quad.Quad

(* The six replayable tools, as replay jobs in [Toolset.names] order. *)
let jobs prog =
  List.map
    (fun name ->
      match Toolset.job ~prog ~slice ~period name with
      | Ok j -> j
      | Error e -> failwith e)
    Toolset.names

let reports_of results =
  List.map
    (fun (name, outcome) ->
      match outcome with
      | Ok report -> (name, report)
      | Error f ->
          raise (Check_failed (name ^ ": " ^ Replay.failure_message f)))
    results

(* Named reports must agree byte for byte on every tool [expected] has. *)
let same_reports ~what expected actual =
  List.iter
    (fun (tool, report) ->
      match List.assoc_opt tool expected with
      | None -> raise (Check_failed (what ^ ": no " ^ tool ^ " report to compare"))
      | Some want ->
          check (String.equal want report) "%s: %s report differs" what tool)
    actual

(* ---------- dbi, probe and live tools ---------- *)

let reps = 3

(* Median wall of [reps] engine runs of the wfs program with [attach]'s
   instrumentation, each on a fresh machine. *)
let engine_runs spans w name attach =
  let walls =
    List.init reps (fun _ ->
        let m = machine w in
        let eng = Engine.create m in
        attach eng;
        let (), dt =
          span_timed spans name (fun () -> Engine.run ~fuel:w.fuel eng)
        in
        check_wfs_output w m;
        dt)
  in
  median walls

(* [dbi.run_s], [probe.run_s], [probe.synth_s] and [probe.events]; returns
   [dbi.run_s] and [probe.run_s] for the layers measured on top of them. *)
let dbi_and_probe spans r w =
  let dbi = engine_runs spans w "dbi.run" ignore in
  let events = ref 0 in
  let probe =
    engine_runs spans w "probe.run" (fun eng ->
        events := 0;
        Probe.attach eng (fun _ -> incr events))
  in
  metric r "dbi.run_s" dbi;
  metric r "probe.run_s" probe;
  metric r "probe.synth_s" (probe -. dbi);
  metric r "probe.events" (float_of_int !events);
  (dbi, probe)

let live_tools spans r w ~probe_s =
  let tq =
    engine_runs spans w "tquad.live" (fun eng ->
        ignore (Tquad.attach ~slice_interval:slice eng))
  in
  let q = engine_runs spans w "quad.live" (fun eng -> ignore (Quad.attach eng)) in
  metric r "tquad.live_s" (tq -. probe_s);
  metric r "quad.live_s" (q -. probe_s);
  (tq -. probe_s, q -. probe_s)

(* Engine and page-cache counters of one finished run, taken at once so
   the machine itself need not be kept. *)
type engine_snapshot = {
  instructions : int;
  st : Engine.stats;
  mc : Tq_vm.Memory.cache_stats;
}

let snapshot eng m =
  {
    instructions = Machine.instr_count m;
    st = Engine.stats eng;
    mc = Tq_vm.Memory.cache_stats (Machine.mem m);
  }

let engine_stats r { instructions; st; mc } =
  let pct a b = 100. *. float_of_int a /. float_of_int (max 1 b) in
  metric r "dbi.instructions" (float_of_int instructions);
  metric r "dbi.compiled_traces" (float_of_int st.Engine.compiled_traces);
  metric r "dbi.chain_hit_pct" (pct st.chain_hits st.lookups);
  metric r "vm.page_cache_hit_pct"
    (pct mc.Tq_vm.Memory.hits (mc.hits + mc.misses))

(* ---------- trace container and reader ---------- *)

let trace_counts r reader =
  metric r "trace.chunks" (float_of_int (Reader.n_chunks reader));
  metric r "trace.stored_events" (float_of_int (Reader.stored_events reader));
  metric r "trace.repeat_chunks" (float_of_int (Reader.repeat_chunks reader));
  metric r "trace.body_chunks" (float_of_int (Reader.body_chunks reader))

(* One replay tool driven by hand, so its [consume] can be timed alone. *)
type sink = {
  tool : string;  (** [Toolset] name *)
  layer : string;  (** metric prefix: the tool's module *)
  wants : bool array;  (** by event tag *)
  consume : Event.t -> unit;
  render : unit -> string;
}

let sinks prog =
  let symtab = prog.Tq_vm.Program.symtab in
  let mk tool layer interest consume render =
    let wants = Array.make Event.n_kinds false in
    List.iter (fun k -> wants.(Event.kind_tag k) <- true) interest;
    { tool; layer; wants; consume; render }
  in
  let tq = Tquad.create ~slice_interval:slice symtab in
  let q = Quad.create symtab in
  let g = Tq_gprofsim.Gprofsim.create ~period symtab in
  let mix = Tq_prof.Ins_mix.create prog in
  let c = Tq_prof.Cache_sim.create symtab in
  let f = Tq_prof.Footprint.create prog in
  [
    mk "tquad" "tquad" Tquad.interest (Tquad.consume tq) (fun () ->
        Toolset.render_tquad ~slice tq);
    mk "quad" "quad" Quad.interest (Quad.consume q) (fun () ->
        Toolset.render_quad q);
    mk "gprof" "gprofsim" Tq_gprofsim.Gprofsim.interest
      (Tq_gprofsim.Gprofsim.consume g) (fun () -> Toolset.render_gprof g);
    mk "mix" "ins_mix" Tq_prof.Ins_mix.interest (Tq_prof.Ins_mix.consume mix)
      (fun () -> Toolset.render_mix mix);
    mk "cache" "cache_sim" Tq_prof.Cache_sim.interest
      (Tq_prof.Cache_sim.consume c) (fun () -> Tq_prof.Cache_sim.render c);
    mk "footprint" "footprint" Tq_prof.Footprint.interest
      (Tq_prof.Footprint.consume f) (fun () -> Tq_prof.Footprint.render f);
  ]

let group_events = 262_144

type sink_pass = {
  materialise_s : float;
  sink_s : (string * float) list;  (** by layer *)
  render_s : float;
  reports : (string * string) list;  (** by tool *)
}

(* Materialise the trace a group of chunks at a time (at least
   [group_events] events per group), then feed the group to each tool's
   [consume] in turn, timing each separately.  The reader should already
   be CRC-verified, so materialising is decode plus allocation. *)
let sink_pass spans reader prog =
  let sinks = Array.of_list (sinks prog) in
  let per = Array.make (Array.length sinks) 0. in
  let mat = ref 0. in
  let n = Reader.n_chunks reader in
  let next = ref 0 in
  while !next < n do
    let group, dt =
      span_timed spans "reader.materialise" (fun () ->
          let acc = ref [] and evs = ref 0 in
          while !next < n && !evs < group_events do
            let a = Reader.chunk_events reader !next in
            acc := a :: !acc;
            evs := !evs + Array.length a;
            incr next
          done;
          List.rev !acc)
    in
    mat := !mat +. dt;
    Array.iteri
      (fun k s ->
        let (), dt =
          span_timed spans (s.layer ^ ".sink") (fun () ->
              List.iter
                (Array.iter (fun ev ->
                     if Array.unsafe_get s.wants (Event.tag ev) then s.consume ev))
                group)
        in
        per.(k) <- per.(k) +. dt)
      sinks
  done;
  let reports, render_s =
    span_timed spans "report.render" (fun () ->
        Array.to_list (Array.map (fun s -> (s.tool, s.render ())) sinks))
  in
  {
    materialise_s = !mat;
    sink_s = Array.to_list (Array.mapi (fun k s -> (s.layer, per.(k))) sinks);
    render_s;
    reports;
  }

let add_sink_metrics r passes =
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0. passes in
  metric r "reader.materialise_s" (sum (fun p -> p.materialise_s));
  metric r "report.render_s" (sum (fun p -> p.render_s));
  match passes with
  | [] -> ()
  | p :: _ ->
      List.iter
        (fun (layer, _) ->
          metric r (layer ^ ".sink_s")
            (sum (fun p -> List.assoc layer p.sink_s)))
        p.sink_s

(* CRC and decode timed on one fresh reader, then the sink pass on the
   same, now verified, reader.  Returns the reader and the pass. *)
let reader_layers spans r path prog =
  let reader = Spans.with_ spans "reader.load" (fun () -> Reader.load path) in
  let _, crc_s = span_timed spans "reader.crc" (fun () -> Reader.crc_check reader) in
  let (), decode_s =
    span_timed spans "reader.decode" (fun () -> Reader.iter reader ignore)
  in
  metric r "reader.crc_s" crc_s;
  metric r "reader.decode_s" decode_s;
  (reader, sink_pass spans reader prog)

(* Medians over the given pipeline runs. *)
let replay_stats r (ss : Replay.run_stats list) =
  let med f = median (List.map f ss) in
  let count f = med (fun s -> float_of_int (f s)) in
  metric r "replay.decode_s" (med (fun s -> s.Replay.rs_decode_s));
  metric r "replay.ordered_s" (med (fun s -> s.Replay.rs_ordered_s));
  metric r "replay.shard_s" (med (fun s -> s.Replay.rs_shard_s));
  metric r "replay.merge_s" (med (fun s -> s.Replay.rs_merge_s));
  metric r "replay.domains" (count (fun s -> s.Replay.rs_domains));
  metric r "replay.shards" (count (fun s -> s.Replay.rs_shards));
  metric r "replay.peak_live_chunks" (count (fun s -> s.Replay.rs_peak_live_chunks))
