(* serve-mix: an in-process analysis daemon with two worker domains and two
   closed-loop clients, each on its own connection.  Both clients upload
   the same two recordings (wfs tiny as v3, the image pipeline as v4) and
   then send seeded replay requests, each waiting for its report before
   sending the next. *)

open Common
open Layers
module Client = Tq_serve.Client
module Server = Tq_serve.Server
module Json = Tq_obs.Json

(* Image size whose v4 recording decodes to about as many events as wfs
   tiny's v3 one (1.36M). *)
let image_width = 56

let image_height = 56

(* Holds the decoded chunks of either trace (about 88 MB each by the
   daemon's own weight estimate) but not both, so switching traces
   evicts. *)
let cache_bytes = 128 * 1024 * 1024

let workers = 2

(* Each set-up records two traces and uploads them four times (seconds),
   so three repetitions give its median. *)
let setup_reps = 3

let clients = 2

let warmup_s = 2.

type trace = {
  label : string;
  prog : Tq_vm.Program.t;
  bytes : string;  (** the container *)
  events : int;
}

type daemon = {
  thread : Thread.t;
  conns : Client.t array;  (** one per client *)
  ids : string array;  (** server trace id, by trace index *)
}

let ok what = function
  | Ok v -> v
  | Error (e : Client.err) ->
      raise (Check_failed (Printf.sprintf "%s: %s (%s)" what e.reason e.kind))

let record spans ~work ~label ~compress prog files =
  let path = Filename.concat work (label ^ ".trc") in
  let m = load prog files in
  let events =
    Spans.with_ spans "probe.record" (fun () ->
        Probe.record ~compress (Engine.create m) ~path)
  in
  check (Machine.exit_code m = Some 0) "%s did not exit 0" label;
  let bytes = read_file path in
  Sys.remove path;
  { label; prog; bytes; events }

let compile_image spans =
  let unit_ =
    Spans.with_ spans "minic.compile" (fun () ->
        Tq_minic.Driver.compile_unit ~image:"imgpipe"
          (Tq_apps.Apps.image_pipeline ~width:image_width ~height:image_height ()))
  in
  Spans.with_ spans "rt.link" (fun () -> Tq_rt.Rt.link [ unit_ ])

let sockets = ref 0

let next_socket () =
  incr sockets;
  !sockets

let start_server cfg =
  let m = Mutex.create () and c = Condition.create () and ready = ref false in
  let thread =
    Thread.create
      (fun () ->
        Server.run ~handle_signals:false
          ~on_ready:(fun () ->
            Mutex.protect m (fun () ->
                ready := true;
                Condition.signal c))
          cfg)
      ()
  in
  Mutex.protect m (fun () ->
      while not !ready do
        Condition.wait c m
      done);
  thread

let serve_cfg socket =
  {
    (Server.default ~socket_path:socket) with
    Server.workers;
    cache_bytes;
    queue_limit = 32;
    rate = 10_000.;
    burst = 10_000;
  }

(* Start a daemon on a fresh socket, connect both clients and have each
   upload both traces. *)
let start_daemon spans ~work traces =
  let socket = Filename.concat work (Printf.sprintf "serve-%d.sock" (next_socket ())) in
  let thread = Spans.with_ spans "server.start" (fun () -> start_server (serve_cfg socket)) in
  let conns =
    Array.init clients (fun _ -> ok "connect" (Client.connect ~timeout_s:120. socket))
  in
  let ids = Array.make (Array.length traces) "" in
  Array.iter
    (fun c ->
      Array.iteri
        (fun i t ->
          ids.(i) <-
            Spans.with_ spans "client.upload" (fun () ->
                ok "upload"
                  (Client.upload ~name:t.label
                     ~program:(Tq_vm.Objfile.encode t.prog) ~trace:t.bytes c)))
        traces)
    conns;
  { thread; conns; ids }

(* Compile both programs, record both traces and start a daemon holding
   them. *)
let setup spans ~seed ~work =
  let tiny = setup_wfs spans Scenario.tiny seed in
  let image = compile_image spans in
  let traces =
    [|
      record spans ~work ~label:"wfs-tiny" ~compress:false tiny.prog tiny.files;
      record spans ~work ~label:"image" ~compress:true image [];
    |]
  in
  (traces, start_daemon spans ~work traces)

let stop d =
  ignore (Client.shutdown d.conns.(0));
  Array.iter Client.close d.conns;
  Thread.join d.thread

(* ---------- requests ---------- *)

type request = { trace : int; tools : string list option (** [None]: all six *) }

(* The work runs in rounds.  In each round both clients replay the same
   trace, and each sends a block of seven requests: the full six-tool set,
   which finds the other trace's chunks in the cache and reloads it, then
   every tool alone once, in an order drawn from the seed and the client.
   Rounds alternate the two traces, starting on one drawn from the seed.
   A round ends when both clients have their seven reports; a pair of
   consecutive rounds, one on each trace, is the measured unit of work.
   The blocks fix the mix of work, so the seed changes only its order. *)
let first_trace seed = Random.State.int (Random.State.make [| seed; 0x5e7 |]) 2

let block_stream ~seed ~client =
  let st = Random.State.make [| seed; 0x5e7; client |] in
  fun () ->
    let items = Array.of_list (List.map (fun t -> Some [ t ]) Toolset.names) in
    for i = Array.length items - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = items.(i) in
      items.(i) <- items.(j);
      items.(j) <- x
    done;
    None :: Array.to_list items

type sample = { latency : float; submit : float; wait : float }

(* The served reports must be the requested tools' reports, each equal to
   a local [Replay.sequential] of the same trace. *)
let check_report ~oracle (rq : request) (rep : Client.report) =
  check rep.done_ "job not done";
  check (rep.killed = None) "job killed";
  check (rep.failures = []) "tool failures: %s"
    (String.concat ", " (List.map fst rep.failures));
  let want = Option.value ~default:Toolset.names rq.tools in
  check (List.map fst rep.reports = want) "reports for [%s], asked [%s]"
    (String.concat "," (List.map fst rep.reports))
    (String.concat "," want);
  same_reports ~what:"served vs local replay" oracle.(rq.trace) rep.reports

(* The round barrier: the last client to finish a round records its wall
   and decides whether another round starts. *)
type rounds = {
  lock : Mutex.t;
  cond : Condition.t;
  deadline : float;
  mutable arrived : int;
  mutable round : int;
  mutable go : bool;
  mutable started : float;
  mutable walls : float list;  (** newest first *)
}

let end_round b k =
  Mutex.protect b.lock (fun () ->
      b.arrived <- b.arrived + 1;
      if b.arrived = clients then begin
        let t = now () in
        b.walls <- (t -. b.started) :: b.walls;
        b.arrived <- 0;
        (* the second round of a pair always runs *)
        b.go <- t < b.deadline || k mod 2 = 0;
        (* between pairs, with no job in flight, a sample of the
           machine's speed *)
        if k mod 2 = 1 && b.go then Calib.sample ();
        b.started <- now ();
        b.round <- k + 1;
        Condition.broadcast b.cond
      end
      else
        while b.round = k do
          Condition.wait b.cond b.lock
        done;
      b.go)

type client_out = {
  samples : sample list;
  attempted : int;
  failures : string list;
}

let client_loop spans b ~first ~oracle ~blocks d i =
  let c = d.conns.(i) in
  let samples = ref [] and attempted = ref 0 and failures = ref [] in
  let job rq =
    incr attempted;
    let req = (i * 1_000_000) + !attempted in
    match
      let t0 = now () in
      let jid, submit =
        span_timed spans ~req "client.submit" (fun () ->
            ok "replay" (Client.replay ?tools:rq.tools ~slice ~period c d.ids.(rq.trace)))
      in
      let rep, wait =
        span_timed spans ~req "client.wait" (fun () ->
            ok "report" (Client.report ~wait:true c jid))
      in
      let latency = now () -. t0 in
      check_report ~oracle rq rep;
      { latency; submit; wait }
    with
    | s -> samples := s :: !samples
    | exception Check_failed msg -> failures := msg :: !failures
    | exception e -> failures := Printexc.to_string e :: !failures
  in
  Spans.with_ spans "client.loop" (fun () ->
      let rec round k =
        let trace = (first + k) mod 2 in
        List.iter (fun tools -> job { trace; tools }) (blocks ());
        if end_round b k then round (k + 1)
      in
      round 0);
  { samples = !samples; attempted = !attempted; failures = !failures }

type phase = {
  samples : sample list;
  pairs : float list;  (** walls of consecutive round pairs *)
  wall : float;
}

(* Round pairs until [seconds] have passed. *)
let request_phase spans r ~seconds ~first ~oracle ~blocks d =
  Calib.sample ();
  let t0 = now () in
  let b =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      deadline = t0 +. seconds;
      arrived = 0;
      round = 0;
      go = true;
      started = t0;
      walls = [];
    }
  in
  let outs = Array.make clients None in
  let threads =
    Array.init clients (fun i ->
        Thread.create
          (fun () ->
            outs.(i) <- Some (client_loop spans b ~first ~oracle ~blocks:blocks.(i) d i))
          ())
  in
  Array.iter Thread.join threads;
  let wall = now () -. t0 in
  let samples =
    Array.fold_left
      (fun acc o ->
        let o : client_out = Option.get o in
        r.Common.attempted <- r.Common.attempted + o.attempted;
        List.iter (note_failure r) o.failures;
        o.samples @ acc)
      [] outs
  in
  let rec pairs = function a :: b :: rest -> (a +. b) :: pairs rest | _ -> [] in
  { samples; pairs = pairs (List.rev b.walls); wall }

(* ---------- daemon stats ---------- *)

let rec path json = function
  | [] -> json
  | k :: rest -> (
      match Json.member k json with
      | Some v -> path v rest
      | None -> raise (Check_failed ("server stats lack " ^ k)))

let num json keys =
  match path json keys with
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ ->
      raise
        (Check_failed ("server stat " ^ String.concat "." keys ^ " is not a number"))

let server_stats d = ok "stats" (Client.stats d.conns.(0))

(* The daemon's cache weight per event after one full replay of wfs tiny
   into an empty cache. *)
let bytes_per_event traces d =
  let c = d.conns.(0) in
  let jid = ok "replay" (Client.replay ~slice ~period c d.ids.(0)) in
  ignore (ok "report" (Client.report ~wait:true c jid));
  num (server_stats d) [ "cache"; "weight" ] /. float_of_int traces.(0).events

(* ---------- the workload ---------- *)

let latencies samples = List.map (fun s -> s.latency) samples

(* [job_p90_s] needs this many jobs in the traced phase. *)
let min_jobs_p90 = 100

let run ~traced ~seed ~seconds ~work r spans =
  let bpe = ref nan in
  let (traces, d), setup_walls =
    repeated_setup ~reps:setup_reps
      ~discard:(fun (traces, d) ->
        Fun.protect
          ~finally:(fun () -> stop d)
          (fun () ->
            if traced && Float.is_nan !bpe then bpe := bytes_per_event traces d))
      (fun () -> setup spans ~seed ~work)
  in
  let d = ref d in
  Fun.protect
    ~finally:(fun () -> stop !d)
    (fun () ->
      let oracle =
        Array.map
          (fun t ->
            reports_of
              (Replay.sequential (Reader.of_string t.bytes) (jobs t.prog)))
          traces
      in
      let blocks = Array.init clients (fun client -> block_stream ~seed ~client) in
      let first = first_trace seed in
      let phase spans seconds =
        request_phase spans r ~seconds ~first ~oracle ~blocks !d
      in
      (* two seconds of checked, untimed rounds first *)
      ignore (phase off warmup_s);
      reset_peak_rss ();
      let e2e p =
        Printf.printf "jobs measured: %d, round pairs (s): %s\n" (List.length p.samples)
          (String.concat " " (List.map (Printf.sprintf "%.3f") p.pairs));
        metric r "peak_rss_mb" (peak_rss_mb ());
        scaled_times r ~setup_s:(median setup_walls) ~profile_s:(median p.pairs)
      in
      if not traced then e2e (phase spans seconds)
      else begin
        metric r "minic.compile_s"
          (Spans.total spans ~name:"minic.compile" /. float_of_int setup_reps);
        metric r "client.upload_s"
          (Spans.total spans ~name:"client.upload" /. float_of_int setup_reps);
        metric r "lru.bytes_per_event" !bpe;
        metric r "trace_mb"
          (float_of_int
             (Array.fold_left (fun acc t -> acc + String.length t.bytes) 0 traces)
          /. 1e6);
        (* half the time untraced, half traced, as on the wfs workloads *)
        let untraced = phase off (seconds /. 2.) in
        (* A fresh daemon, so that its execution times and queue peak
           cover the traced phase's jobs and no others.  It starts with an
           empty cache, as every round starts with the other trace's
           chunks in it. *)
        stop !d;
        d := start_daemon off ~work traces;
        let before = server_stats !d in
        let p = phase spans (seconds /. 2.) in
        let after = server_stats !d in
        e2e p;
        let lat = latencies p.samples in
        let n = List.length lat in
        let p50 = median lat in
        metric r "job_p50_s" p50;
        metric r "job_p90_s" (if n >= min_jobs_p90 then percentile lat 90. else nan);
        metric r "jobs_per_s" (float_of_int n /. p.wall);
        let u = median (latencies untraced.samples) in
        metric r "trace_overhead_pct" (100. *. (p50 -. u) /. u);
        let submit = median (List.map (fun s -> s.submit) p.samples) in
        metric r "client.submit_s" submit;
        metric r "client.wait_s" (median (List.map (fun s -> s.wait) p.samples));
        let timed_jobs = num after [ "latency"; "count" ] in
        post_check r (fun () ->
            check (timed_jobs = float_of_int n)
              "the daemon timed %g jobs, the clients got %d reports" timed_jobs n);
        let exec_p50 = num after [ "latency"; "p50_s" ] in
        metric r "jobs.exec_p50_s" exec_p50;
        metric r "jobs.exec_p99_s" (num after [ "latency"; "p99_s" ]);
        metric r "jobs.queue_s" (p50 -. exec_p50);
        metric r "jobs.peak_depth" (num after [ "queue"; "peak" ]);
        let delta keys = num after keys -. num before keys in
        let hits = delta [ "cache"; "hits" ] and misses = delta [ "cache"; "misses" ] in
        metric r "lru.hit_rate" (hits /. Float.max 1. (hits +. misses));
        metric r "lru.misses" misses;
        metric r "lru.evictions" (delta [ "cache"; "evictions" ]);
        metric r "limiter.rejected" (num after [ "rate"; "rejected" ]);
        (* a job's latency is its submission, its execution on the daemon,
           and what neither covers: queueing and the report's trip back *)
        Printf.printf "layer accounting: job p50 %.4f s, submit %.4f s, exec p50 %.4f s\n"
          p50 submit exec_p50;
        metric r "unattributed_pct" (100. *. Float.abs (p50 -. submit -. exec_p50) /. p50);
        metric r "busy_pct"
          (100.
          *. (Spans.total spans ~name:"client.submit"
             +. Spans.total spans ~name:"client.wait")
          /. p.wall);
        post_check r (fun () ->
            let passes =
              Array.to_list
                (Array.mapi
                   (fun i t ->
                     let reader = Reader.of_string t.bytes in
                     ignore (Reader.crc_check reader : int);
                     let pass = sink_pass spans reader t.prog in
                     same_reports ~what:"per-tool consume vs replay" oracle.(i)
                       pass.reports;
                     pass)
                   traces)
            in
            add_sink_metrics r passes)
      end)
