(* Shared plumbing: timing, seeded inputs, the wfs set-up, metric
   collection and the result line. *)

module Scenario = Tq_wfs.Scenario
module Machine = Tq_vm.Machine
module Vfs = Tq_vm.Vfs
module Engine = Tq_dbi.Engine

let now = Unix.gettimeofday

let timed f =
  let t = now () in
  let r = f () in
  (r, now () -. t)

(* Run [f] inside a span named [name] and return its result with its wall
   time, traced or not. *)
let span_timed spans ?req name f = timed (fun () -> Spans.with_ spans ?req name f)

(* A recorder that records nothing, for untraced and reference work. *)
let off = Spans.create ~on:false

let percentile xs p =
  match xs with
  | [] -> nan
  | _ -> Tq_util.Stats.percentile (Array.of_list xs) p

let median xs = percentile xs 50.

(* tQUAD's slice and gprof's sampling period in every workload: the
   paper's 2000-instruction slice and the CLI's default period. *)
let slice = 2_000

let period = 10_000

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* ---------- seeded input ---------- *)

(* The wfs primary source, shaped like [Scenario.input] (a decaying
   sweep plus a low tone) with the sweep start, tone, phases and a little
   noise drawn from the seed.  The sample count is the scenario's and the
   signal statistics barely move with the seed, so neither does the work. *)
let seeded_input (scen : Scenario.t) seed =
  let st = Random.State.make [| seed; 0x7ab |] in
  let two_pi = 2. *. Float.pi in
  let f0 = 160. +. Random.State.float st 40.
  and tone = 87. +. Random.State.float st 20.
  and p1 = Random.State.float st two_pi
  and p2 = Random.State.float st two_pi in
  let n = Scenario.input_samples scen in
  let rate = float_of_int scen.sample_rate in
  let samples =
    Array.init n (fun i ->
        let t = float_of_int i /. rate in
        let sweep = f0 +. (420. *. float_of_int i /. float_of_int n) in
        (exp (-1.2 *. t)
        *. ((0.55 *. sin ((two_pi *. sweep *. t) +. p1))
           +. (0.25 *. sin ((two_pi *. tone *. t) +. p2))))
        +. (0.01 *. (Random.State.float st 2. -. 1.)))
  in
  { Tq_wav.Wav.sample_rate = scen.sample_rate; channels = [| samples |] }

let le64 v = String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

(* ---------- a compiled wfs run ---------- *)

type wfs = {
  scen : Scenario.t;
  prog : Tq_vm.Program.t;
  files : (string * string) list;  (** the virtual filesystem's contents *)
  fuel : int;
}

(* A fresh machine for [prog] with [files] in its virtual filesystem. *)
let load prog files =
  let vfs = Vfs.create () in
  List.iter (fun (path, data) -> Vfs.install vfs path data) files;
  Machine.create ~vfs prog

let machine w = load w.prog w.files

(* Compile the scenario's MiniC source exactly as [Harness.compile] does,
   and build its input files from the seed. *)
let setup_wfs spans scen seed =
  let unit_ =
    Spans.with_ spans "minic.compile" (fun () ->
        Tq_minic.Driver.compile_unit ~verify:true ~image:"wfs"
          (Tq_wfs.Source.generate scen))
  in
  let prog = Spans.with_ spans "rt.link" (fun () -> Tq_rt.Rt.link [ unit_ ]) in
  let files =
    Spans.with_ spans "input.build" (fun () ->
        [
          ("input.wav", Tq_wav.Wav.encode (seeded_input scen seed));
          ("config.bin", le64 scen.sample_rate ^ le64 scen.chunks);
        ])
  in
  { scen; prog; files; fuel = Tq_wfs.Harness.fuel scen }

(* wfs must exit 0 and leave an [output.wav] with one channel per speaker
   and one frame per input sample. *)
let check_wfs_output w m =
  check (Machine.exit_code m = Some 0) "wfs exit code %s"
    (match Machine.exit_code m with
    | Some c -> string_of_int c
    | None -> "none (did not halt)");
  match Vfs.contents (Machine.vfs m) "output.wav" with
  | None -> raise (Check_failed "wfs wrote no output.wav")
  | Some bytes -> (
      match Tq_wav.Wav.decode bytes with
      | Error e -> raise (Check_failed ("output.wav does not decode: " ^ e))
      | Ok wav ->
          check
            (Array.length wav.channels = w.scen.speakers
            && Tq_wav.Wav.num_frames wav = Scenario.input_samples w.scen)
            "output.wav has %d channels x %d frames" (Array.length wav.channels)
            (Tq_wav.Wav.num_frames wav))

(* ---------- set-up repeated ---------- *)

(* Run [setup] [reps] times, each behind a compacted heap, and return the
   last result with every wall.  [discard] releases an earlier result
   before the next.  The machine's speed is sampled before and after. *)
let repeated_setup ~reps ?(discard = ignore) setup =
  Calib.sample ();
  let rec go i acc prev =
    Option.iter discard prev;
    Gc.compact ();
    let r, dt = timed setup in
    if i = reps then (r, dt :: acc) else go (i + 1) (dt :: acc) (Some r)
  in
  let result = go 1 [] None in
  Calib.sample ();
  result

(* ---------- the run's outcome ---------- *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** check failures, reported on stdout *)
  mutable metrics : (string * float) list;
}

let new_result () = { attempted = 0; failed = 0; notes = []; metrics = [] }

let metric r name v = r.metrics <- (name, v) :: r.metrics

(* The value last reported under [name]. *)
let reported r name = List.assoc name r.metrics

let note_failure r msg =
  r.failed <- r.failed + 1;
  r.notes <- msg :: r.notes

(* Run [f]; a failed check or an exception is noted as one failure. *)
let guarded r f =
  match f () with
  | v -> Some v
  | exception Check_failed msg ->
      note_failure r ("check failed: " ^ msg);
      None
  | exception e ->
      note_failure r ("error: " ^ Printexc.to_string e);
      None

(* One checked operation: counted, and counted failed if it fails. *)
let attempt r f =
  r.attempted <- r.attempted + 1;
  guarded r f

(* A check after the measured operations: a failure marks one more
   operation failed. *)
let post_check r f = ignore (guarded r f : unit option)

(* The end-to-end times [setup_s] and [profile_s], given as medians of
   walls, in reference-machine seconds (see [Calib]).  Call it after the
   measured phase, so the scale covers all of the run's samples. *)
let scaled_times r ~setup_s ~profile_s =
  let kernel_s = Calib.kernel_s () in
  Printf.printf "machine: kernel %.5f s (reference %.5f s) over %d samples; walls: set-up %.6g s, operation %.6g s\n"
    kernel_s Calib.ref_s (List.length !Calib.samples) setup_s profile_s;
  metric r "setup_s" (Calib.scale setup_s);
  metric r "profile_s" (Calib.scale profile_s)

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024. /. 1e6)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* Restart the peak-RSS mark at the current resident set (Linux
   [clear_refs]), behind a compacted heap, so that [peak_rss_mb] covers
   the measured phase and not the set-up or reference runs before it. *)
let reset_peak_rss () =
  Gc.compact ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* Run [f] until [seconds] have passed (at least once). *)
let for_seconds seconds f =
  let t0 = now () in
  let rec loop () =
    f ();
    if now () -. t0 < seconds then loop ()
  in
  loop ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let file_size path = (Unix.stat path).Unix.st_size
