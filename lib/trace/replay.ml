(* Replay driver: sequential oracle, supervised single-pass groups, and the
   tool-parallel replay behind [parallel].

   [parallel] (see DESIGN.md §8) verifies every chunk's CRC once, splits the
   jobs into one cost-balanced group per domain, and streams the whole trace
   through each group on its own domain over the one shared reader. *)

type job = {
  name : string;
  wants : Event.kind list;
  cost : float;
  make : unit -> (Event.t -> unit) * (unit -> string);
}

type failure = { exn : exn; backtrace : string }
type outcome = (string, failure) result
type domain_timing = { domain : int; jobs : string list; wall_s : float }

type run_stats = {
  rs_domains : int;
  rs_shards : int;
  rs_chunks : int;
  rs_events : int;
  rs_decode_s : float;
  rs_ordered_s : float;
  rs_shard_s : float;
  rs_merge_s : float;
  rs_peak_live_chunks : int;
}

let job ?(wants = Event.all_kinds) ?(cost = 1.) name make =
  { name; wants; cost; make }

let capture exn = { exn; backtrace = Printexc.get_backtrace () }

let failure_message f =
  match f.exn with
  | Reader.Format_error msg -> "trace unreadable: " ^ msg
  | e -> Printexc.to_string e

let is_trace_error f =
  match f.exn with Reader.Format_error _ -> true | _ -> false

let wanted_tags j =
  let w = Array.make Event.n_kinds false in
  List.iter (fun k -> w.(Event.kind_tag k) <- true) j.wants;
  w

(* Unrolled fan-out for the common arities: the dispatch runs once per event
   tag occurrence, and binding each sink directly beats an Array.iter per
   event. *)
let fuse = function
  | [||] -> fun (_ : Event.t) -> ()
  | [| s0 |] -> s0
  | [| s0; s1 |] -> fun ev -> s0 ev; s1 ev
  | [| s0; s1; s2 |] -> fun ev -> s0 ev; s1 ev; s2 ev
  | [| s0; s1; s2; s3 |] ->
      fun ev ->
        s0 ev;
        s1 ev;
        s2 ev;
        s3 ev
  | [| s0; s1; s2; s3; s4 |] ->
      fun ev ->
        s0 ev;
        s1 ev;
        s2 ev;
        s3 ev;
        s4 ev
  | [| s0; s1; s2; s3; s4; s5 |] ->
      fun ev ->
        s0 ev;
        s1 ev;
        s2 ev;
        s3 ev;
        s4 ev;
        s5 ev
  | sinks -> fun ev -> Array.iter (fun s -> s ev) sinks

(* Walk a decoded chunk through one fused-sink-per-tag dispatch table — the
   inner loop of the serve layer's decoded-chunk-cache pass. *)
let dispatch per_tag evs =
  for i = 0 to Array.length evs - 1 do
    let ev = Array.unsafe_get evs i in
    (Array.unsafe_get per_tag (Event.tag ev)) ev
  done

(* One job, one decode pass, every exception captured: a raising tool (or a
   trace that fails its CRC check mid-iteration) becomes this job's [Error],
   not an abort of the caller. *)
let run_job reader j =
  match
    let sink, finish = j.make () in
    let wanted = wanted_tags j in
    if Array.for_all Fun.id wanted then Reader.iter reader sink
    else Reader.iter reader (fun ev -> if wanted.(Event.tag ev) then sink ev);
    finish ()
  with
  | report -> Ok report
  | exception e -> Error (capture e)

let sequential ?timings reader jobs =
  match timings with
  | None -> List.map (fun j -> (j.name, run_job reader j)) jobs
  | Some report ->
      let timed = ref [] in
      let results =
        List.map
          (fun j ->
            let t0 = Unix.gettimeofday () in
            let out = run_job reader j in
            let wall_s = Unix.gettimeofday () -. t0 in
            timed := { domain = 0; jobs = [ j.name ]; wall_s } :: !timed;
            (j.name, out))
          jobs
      in
      report (List.rev !timed);
      results

(* Run one group of jobs through a single dispatch pass.  Each event tag
   gets its own fused sink over the jobs that declared interest in it, so a
   tool never sees (and never pays a call for) events it would discard.
   [iter] supplies the pass itself — [Reader.iter_tags] for the in-process
   replay paths, the decoded-chunk cache walk for the serve layer — and
   must deliver every event to the sink at the event's tag.

   Supervision: each job's sink is guarded — a raising tool is retired from
   the rest of the pass (its sink becomes a no-op) and comes back as [Error],
   instead of poisoning the whole group.  Only a failure of the dispatch pass
   itself (an unreadable trace) fails every job still live in the group. *)
let run_group_with ~iter group =
  let n = Array.length group in
  let made =
    Array.map
      (fun j -> match j.make () with m -> Ok m | exception e -> Error (capture e))
      group
  in
  let failed = Array.map (function Ok _ -> None | Error f -> Some f) made in
  let alive = Array.map Option.is_none failed in
  let guard i raw_sink ev =
    if alive.(i) then
      try raw_sink ev
      with e ->
        alive.(i) <- false;
        failed.(i) <- Some (capture e)
  in
  let per_tag =
    Array.init Event.n_kinds (fun tag ->
        let sinks = ref [] in
        for i = n - 1 downto 0 do
          match made.(i) with
          | Ok (sink, _) when (wanted_tags group.(i)).(tag) ->
              sinks := guard i sink :: !sinks
          | _ -> ()
        done;
        fuse (Array.of_list !sinks))
  in
  (match iter per_tag with
  | () -> ()
  | exception e ->
      let f = capture e in
      Array.iteri (fun i live -> if live then failed.(i) <- Some f) alive);
  Array.mapi
    (fun i m ->
      match (failed.(i), m) with
      | Some f, _ | None, Error f -> Error f
      | None, Ok (_, finish) -> (
          match finish () with r -> Ok r | exception e -> Error (capture e)))
    made

let supervised ~iter jobs =
  let group = Array.of_list jobs in
  let outs = run_group_with ~iter group in
  List.mapi (fun i j -> (j.name, outs.(i))) jobs

(* ------------------------------------------------------------------ *)
(* Tool-parallel replay                                                *)
(* ------------------------------------------------------------------ *)

let split_groups ?(load0 = 0.) k costs =
  let order = Array.init (Array.length costs) Fun.id in
  Array.stable_sort (fun a b -> compare costs.(b) costs.(a)) order;
  let load = Array.make k 0. and members = Array.make k [] in
  load.(0) <- load0;
  Array.iter
    (fun jx ->
      let g = ref 0 in
      for i = 1 to k - 1 do
        if load.(i) < load.(!g) then g := i
      done;
      load.(!g) <- load.(!g) +. costs.(jx);
      members.(!g) <- jx :: members.(!g))
    order;
  Array.map (fun l -> Array.of_list (List.sort compare l)) members

(* Verify every chunk before [k] domains share the reader: each domain
   digests a contiguous share of the chunks (disjoint verified bits), and
   the failing share earliest in the trace names the error. *)
let verify_shared reader k =
  let c = Reader.n_chunks reader in
  let share g () =
    match Reader.crc_check ~lo:(g * c / k) ~hi:((g + 1) * c / k) reader with
    | _ -> None
    | exception e -> Some (capture e)
  in
  let spawned = List.init (k - 1) (fun g -> Domain.spawn (share (g + 1))) in
  let first = share 0 () in
  List.find_map Fun.id (first :: List.map Domain.join spawned)

let parallel ?domains ?timings ?stats reader jobs_l =
  let jobs = Array.of_list jobs_l in
  let n = Array.length jobs in
  let hw = Domain.recommended_domain_count () in
  (* one pass per domain: never oversubscribe the machine, extra domains
     beyond the hardware only add contention *)
  let d = match domains with Some d -> max 1 (min d hw) | None -> max 1 hw in
  let groups =
    if n = 0 then [||]
    else split_groups (min d n) (Array.map (fun j -> j.cost) jobs)
  in
  let k = Array.length groups in
  (* Several domains share the reader: set every verified bit before they
     start, so their passes only ever read them.  A corrupt chunk fails
     every job here, before any tool runs. *)
  let crc_s, crc_failure =
    if k > 1 && Reader.verifies reader then begin
      let t0 = Unix.gettimeofday () in
      let failure = verify_shared reader k in
      (Unix.gettimeofday () -. t0, failure)
    end
    else (0., None)
  in
  let outs = Array.make k [||] in
  let walls = Array.make k 0. in
  (* each pass records its own dispatch failure, read after the join *)
  let pass_failed = Array.make k None in
  let run g () =
    let t0 = Unix.gettimeofday () in
    outs.(g) <-
      run_group_with (Array.map (fun jx -> jobs.(jx)) groups.(g))
        ~iter:(fun per_tag ->
          try Reader.iter_tags reader per_tag
          with e ->
            pass_failed.(g) <- Some (capture e);
            raise e);
    walls.(g) <- Unix.gettimeofday () -. t0
  in
  (match crc_failure with
  | Some f ->
      Array.iteri (fun g grp -> outs.(g) <- Array.map (fun _ -> Error f) grp)
        groups
  | None ->
      if k > 0 then begin
        let spawned =
          List.init (k - 1) (fun g -> Domain.spawn (run (g + 1)))
        in
        Fun.protect ~finally:(fun () -> List.iter Domain.join spawned) (run 0)
      end);
  (* every job sits in exactly one group, so this overwrites every slot *)
  let results = Array.make n (Ok "") in
  Array.iteri
    (fun g grp -> Array.iteri (fun i jx -> results.(jx) <- outs.(g).(i)) grp)
    groups;
  (* an unreadable trace seen by any one pass fails every job still live *)
  let trace_failure = Array.find_map Fun.id pass_failed in
  Option.iter
    (fun report ->
      report
        (List.init k (fun g ->
             {
               domain = g;
               jobs =
                 List.map (fun jx -> jobs.(jx).name) (Array.to_list groups.(g));
               wall_s = walls.(g);
             })))
    timings;
  Option.iter
    (fun report ->
      report
        {
          rs_domains = k;
          rs_shards = 1;
          rs_chunks = Reader.n_chunks reader;
          rs_events = Reader.n_events reader;
          rs_decode_s = crc_s;
          rs_ordered_s = Array.fold_left ( +. ) 0. walls;
          rs_shard_s = 0.;
          rs_merge_s = 0.;
          rs_peak_live_chunks = 0;
        })
    stats;
  List.mapi
    (fun jx j ->
      match (results.(jx), trace_failure) with
      | Ok _, Some f -> (j.name, Error f)
      | out, _ -> (j.name, out))
    jobs_l

let check_program reader prog =
  let recorded = Reader.fingerprint reader in
  if Int64.equal recorded 0L then Ok () (* recorder did not know the program *)
  else
    let actual = Tq_vm.Program.fingerprint prog in
    if Int64.equal recorded actual then Ok ()
    else
      Error
        (Printf.sprintf
           "trace was recorded from a different program (trace fingerprint \
            %016Lx, program fingerprint %016Lx); re-record or replay against \
            the original binary"
           recorded actual)
