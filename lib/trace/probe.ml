(* The shared event probe and its live pipeline (see DESIGN.md §12).

   One probe per engine synthesizes each event once.  When the engine first
   instruments code, the sinks split into cost-balanced groups: group 0
   consumes every event inline on the engine's domain, the other groups are
   fed through a ring of reusable struct-of-arrays batches, each by a
   domain of its own that turns rows back into events.  Each analysis
   action is specialised to where its kind goes, so an inline event pays
   no extra indirection.  The engine's fini hands over the last
   partial batch and joins the consumers, so [Engine.run] never returns
   while one of them is still running. *)

module Isa = Tq_isa.Isa
module Engine = Tq_dbi.Engine
module Machine = Tq_vm.Machine
module Symtab = Tq_vm.Symtab

(* Cost weights in the units of the tools' [cost] constants (seconds of
   analysis work on wfs default, 2-core x86-64 box).  [own_cost] is what
   the engine's domain does anyway: executing the program plus the probe's
   event synthesis ([dbi.run_s + probe.synth_s]).  Group 0 starts at it, so
   the heaviest sink always leaves the engine's domain.  [writer_cost] is
   the v4 recorder's [writer.s]. *)
let own_cost = 0.83

let writer_cost = 1.4

(* What pipelining costs a run whatever its sinks: one lock round trip per
   4096-row batch and a wake-up whenever the consumer idles (about 18 us a
   hand-off).  Measured as the wall a lone gprof sink, cost 0.05, lost on
   wfs default when it ran on a consumer domain instead of inline. *)
let handoff_cost = 0.2

(* A batch of 4096 rows is ~230 KB of columns: a few of them keep the
   consumer fed without the producer waiting, and each hand-off (one lock
   round trip, and a wake-up when the consumer is idle) is amortised over
   thousands of events.  16384-row batches were no faster on wfs-live and
   added 4 MB of peak RSS. *)
let batch_rows = 4096

let ring_batches = 4

type sink = {
  name : string;
  tags : bool array;  (** by event tag *)
  cost : float;
  consume : Event.t -> unit;
  boundary : (int -> Event.t -> unit) option;
      (** receives [Block_exec] with the engine's compiled-trace id *)
}

(* Struct-of-arrays events.  Row [r] holds one event: its tag, its fields
   in constructor order in [c0 ..], and for [Block_exec] the compiled-trace
   id.  Int columns are unboxed, so filling a row allocates nothing and a
   queued batch gives the minor GC nothing to promote. *)
type batch = {
  tag : Bytes.t;
  c0 : int array;
  c1 : int array;
  c2 : int array;
  c3 : int array;
  c4 : int array;
  c5 : int array;
  tid : int array;
  mutable len : int;
}

let new_batch () =
  let col () = Array.make batch_rows 0 in
  {
    tag = Bytes.create batch_rows;
    c0 = col ();
    c1 = col ();
    c2 = col ();
    c3 = col ();
    c4 = col ();
    c5 = col ();
    tid = col ();
    len = 0;
  }

let no_batch () =
  let col = [||] in
  {
    tag = Bytes.empty;
    c0 = col;
    c1 = col;
    c2 = col;
    c3 = col;
    c4 = col;
    c5 = col;
    tid = col;
    len = 0;
  }

(* One consumer group: per-tag fan-outs over its sinks. *)
type group = {
  wants : bool array;
  per_tag : (Event.t -> unit) array;
  on_block : int -> Event.t -> unit;
}

type pipeline = {
  groups : string list list;
  batches : int;
  consumer_domains : int;
  stall_s : float;
  idle_s : float;
}

(* The hand-off state, built once and reset after every run.
   [ring.(s mod ring_batches)] holds batch number [s]; the producer may
   refill a slot once every consumer has finished the batch it held.
   Everything below [lock] is guarded by it, except [fill] (producer only)
   and [idle_s.(c)] (consumer [c] only, read after the join). *)
type pipe = {
  consumers : group array;
  mutable ring : batch array;
  mutable fill : batch;
  lock : Mutex.t;
  ready : Condition.t;  (** a batch was published, or the run closed *)
  free : Condition.t;  (** a consumer finished a batch *)
  mutable published : int;
  finished : int array;  (** per consumer; [max_int] once it failed *)
  mutable closed : bool;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable domains : unit Domain.t list;
  mutable stall_s : float;
  idle_s : float array;
}

(* Where each kind goes, fixed when the engine first instruments code. *)
type plan = {
  names : string list list;  (** sink names per group, group 0 first *)
  inline : group;  (** group 0 *)
  out : bool array;  (** by tag: some consumer group wants it *)
  pipe : pipe;
}

type t = {
  m : Machine.t;
  mutable sinks : sink list;  (** reversed attach order *)
  mutable plan : plan option;
  mutable last : pipeline option;
}

let now = Unix.gettimeofday

(* ---------- consumer side ---------- *)

(* Turn each wanted row back into an event and hand it to the group.  The
   tags are {!Event.tag}'s. *)
let consume_batch g b =
  let c0 = b.c0 and c1 = b.c1 and c2 = b.c2 in
  for r = 0 to b.len - 1 do
    let tag = Char.code (Bytes.unsafe_get b.tag r) in
    if Array.unsafe_get g.wants tag then
      let sink = Array.unsafe_get g.per_tag tag in
      let icount = Array.unsafe_get c0 r in
      match tag with
      | 0 ->
          sink
            (Event.Rtn_entry
               {
                 icount;
                 routine = Array.unsafe_get c1 r;
                 sp = Array.unsafe_get c2 r;
               })
      | 1 -> sink (Event.Ret { icount; sp = Array.unsafe_get c1 r })
      | 2 ->
          sink
            (Event.Load
               {
                 icount;
                 static = Array.unsafe_get c1 r;
                 ea = Array.unsafe_get c2 r;
                 size = Array.unsafe_get b.c3 r;
                 sp = Array.unsafe_get b.c4 r;
               })
      | 3 ->
          sink
            (Event.Store
               {
                 icount;
                 static = Array.unsafe_get c1 r;
                 ea = Array.unsafe_get c2 r;
                 size = Array.unsafe_get b.c3 r;
                 sp = Array.unsafe_get b.c4 r;
               })
      | 4 ->
          sink
            (Event.Block_copy
               {
                 icount;
                 static = Array.unsafe_get c1 r;
                 src = Array.unsafe_get c2 r;
                 dst = Array.unsafe_get b.c3 r;
                 len = Array.unsafe_get b.c4 r;
                 sp = Array.unsafe_get b.c5 r;
               })
      | 5 ->
          sink
            (Event.Prefetch
               {
                 icount;
                 ea = Array.unsafe_get c1 r;
                 size = Array.unsafe_get c2 r;
               })
      | _ ->
          g.on_block (Array.unsafe_get b.tid r)
            (Event.Block_exec
               { icount; addr = Array.unsafe_get c1 r; n = Array.unsafe_get c2 r })
  done

let fail pl c e bt =
  Mutex.lock pl.lock;
  if Option.is_none pl.failure then pl.failure <- Some (e, bt);
  pl.finished.(c) <- max_int;
  Condition.signal pl.free;
  Mutex.unlock pl.lock

(* Consumer [c]: take batches in order until the run closes and none is
   left.  A raising sink retires the whole group; the producer sees the
   failure at its next hand-off. *)
let consumer pl c () =
  let g = pl.consumers.(c) in
  let rec loop seq =
    Mutex.lock pl.lock;
    if pl.published <= seq && not pl.closed then begin
      let t0 = now () in
      while pl.published <= seq && not pl.closed do
        Condition.wait pl.ready pl.lock
      done;
      pl.idle_s.(c) <- pl.idle_s.(c) +. (now () -. t0)
    end;
    let available = pl.published > seq in
    Mutex.unlock pl.lock;
    if available then begin
      consume_batch g pl.ring.(seq mod ring_batches);
      Mutex.lock pl.lock;
      pl.finished.(c) <- seq + 1;
      Condition.signal pl.free;
      Mutex.unlock pl.lock;
      loop (seq + 1)
    end
  in
  try loop 0 with e -> fail pl c e (Printexc.get_raw_backtrace ())

(* ---------- producer side ---------- *)

let min_finished pl = Array.fold_left min max_int pl.finished

(* A consumer domain's heap is orphaned when it exits: the next major
   cycle adopts it and only the one after sweeps what died in it.  Run
   after run, the previous run's consumer-side tool state would stay
   resident while the next run builds its own (wfs-live, 8 runs back to
   back: peak RSS 86 -> 63 MB).  So a run that is about to spawn consumers
   after others exited first runs one full major cycle, while its own heap
   is still small (3-7 ms on wfs default). *)
let consumer_exited = Atomic.make false

(* The fill batch is full: publish it (spawning the consumers on the first
   one), then wait until the next slot's batch has been consumed by every
   group.  A consumer's failure surfaces here, on the engine's domain. *)
let hand_off pl =
  if pl.domains = [] then begin
    if Atomic.exchange consumer_exited false then Gc.full_major ();
    if Array.length pl.ring = 0 then
      pl.ring <-
        Array.init ring_batches (fun i -> if i = 0 then pl.fill else new_batch ());
    (* one at a time, so a failed spawn leaves the started ones joinable *)
    Array.iteri
      (fun c _ -> pl.domains <- Domain.spawn (consumer pl c) :: pl.domains)
      pl.consumers
  end;
  Mutex.lock pl.lock;
  pl.published <- pl.published + 1;
  Condition.broadcast pl.ready;
  let next = pl.published in
  if min_finished pl <= next - ring_batches then begin
    let t0 = now () in
    while min_finished pl <= next - ring_batches do
      Condition.wait pl.free pl.lock
    done;
    pl.stall_s <- pl.stall_s +. (now () -. t0)
  end;
  let failure = pl.failure in
  Mutex.unlock pl.lock;
  let b = pl.ring.(next mod ring_batches) in
  b.len <- 0;
  pl.fill <- b;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) failure

let[@inline] next_row pl b r =
  b.len <- r + 1;
  if r + 1 = batch_rows then hand_off pl

let push2 pl tag a1 a2 =
  let b = pl.fill in
  let r = b.len in
  Bytes.unsafe_set b.tag r (Char.unsafe_chr tag);
  Array.unsafe_set b.c0 r a1;
  Array.unsafe_set b.c1 r a2;
  next_row pl b r

let push3 pl tag a1 a2 a3 =
  let b = pl.fill in
  let r = b.len in
  Bytes.unsafe_set b.tag r (Char.unsafe_chr tag);
  Array.unsafe_set b.c0 r a1;
  Array.unsafe_set b.c1 r a2;
  Array.unsafe_set b.c2 r a3;
  next_row pl b r

let push_block pl id icount addr n =
  Array.unsafe_set pl.fill.tid pl.fill.len id;
  push3 pl 6 icount addr n

let push5 pl tag a1 a2 a3 a4 a5 =
  let b = pl.fill in
  let r = b.len in
  Bytes.unsafe_set b.tag r (Char.unsafe_chr tag);
  Array.unsafe_set b.c0 r a1;
  Array.unsafe_set b.c1 r a2;
  Array.unsafe_set b.c2 r a3;
  Array.unsafe_set b.c3 r a4;
  Array.unsafe_set b.c4 r a5;
  next_row pl b r

let push6 pl tag a1 a2 a3 a4 a5 a6 =
  let b = pl.fill in
  let r = b.len in
  Bytes.unsafe_set b.tag r (Char.unsafe_chr tag);
  Array.unsafe_set b.c0 r a1;
  Array.unsafe_set b.c1 r a2;
  Array.unsafe_set b.c2 r a3;
  Array.unsafe_set b.c3 r a4;
  Array.unsafe_set b.c4 r a5;
  Array.unsafe_set b.c5 r a6;
  next_row pl b r

(* ---------- planning ---------- *)

let block_sink s =
  match s.boundary with Some b -> b | None -> fun _ ev -> s.consume ev

let fan_block = function
  | [] -> fun _ (_ : Event.t) -> ()
  | [ f ] -> f
  | fs -> fun id ev -> List.iter (fun f -> f id ev) fs

let group_of sinks =
  let wanting tag = List.filter (fun s -> s.tags.(tag)) sinks in
  {
    wants = Array.init Event.n_kinds (fun tag -> wanting tag <> []);
    per_tag =
      Array.init Event.n_kinds (fun tag ->
          Replay.fuse
            (Array.of_list (List.map (fun s -> s.consume) (wanting tag))));
    on_block = fan_block (List.map block_sink (wanting 6));
  }

(* Split the sinks into groups and build group 0's inline fan-outs and the
   pipe feeding the others.  Batches are allocated only once a consumer
   group exists. *)
let make_plan p =
  let sinks = List.rev p.sinks in
  (* a sink with no analysis cost stays inline: moving it could only add
     the hand-off *)
  let movable = Array.of_list (List.filter (fun s -> s.cost > 0.) sinks) in
  let k =
    max 1 (min (Domain.recommended_domain_count ()) (Array.length movable + 1))
  in
  let split =
    Replay.split_groups ~load0:own_cost k (Array.map (fun s -> s.cost) movable)
  in
  (* Split only when it pays: pipelined, a run takes its heaviest group plus
     the hand-off; inline, every group's load in turn.  Comparing the
     hand-off with the loads of the other groups says the same and stays
     finite when a sink's cost is [infinity]. *)
  let loads =
    Array.mapi
      (fun g members ->
        Array.fold_left
          (fun acc i -> acc +. movable.(i).cost)
          (if g = 0 then own_cost else 0.)
          members)
      split
  in
  Array.sort (fun a b -> compare b a) loads;
  let overlapped =
    Array.fold_left ( +. ) 0. (Array.sub loads 1 (Array.length loads - 1))
  in
  let split =
    if overlapped > handoff_cost then split
    else
      Array.init k (fun g ->
          if g = 0 then Array.init (Array.length movable) Fun.id else [||])
  in
  let members g =
    let moved = Array.to_list (Array.map (fun i -> movable.(i)) split.(g)) in
    List.filter (fun s -> List.memq s moved || (g = 0 && s.cost <= 0.)) sinks
  in
  let others =
    List.filter (( <> ) []) (List.init (k - 1) (fun g -> members (g + 1)))
  in
  let consumers = Array.of_list (List.map group_of others) in
  let n = Array.length consumers in
  {
    names = List.map (List.map (fun s -> s.name)) (members 0 :: others);
    inline = group_of (members 0);
    out =
      Array.init Event.n_kinds (fun tag ->
          Array.exists (fun g -> g.wants.(tag)) consumers);
    pipe =
      {
        consumers;
        ring = [||];
        (* with no consumer nothing is ever pushed *)
        fill = (if n = 0 then no_batch () else new_batch ());
        lock = Mutex.create ();
        ready = Condition.create ();
        free = Condition.create ();
        published = 0;
        finished = Array.make n 0;
        closed = false;
        failure = None;
        domains = [];
        stall_s = 0.;
        idle_s = Array.make n 0.;
      };
  }

let plan p =
  match p.plan with
  | Some pl -> pl
  | None ->
      let pl = make_plan p in
      p.plan <- Some pl;
      pl

(* ---------- fini ---------- *)

(* The engine's fini: drain, join, report, and reset the pipe for the next
   run.  With consumer domains running, hand them the partial batch and
   close; a run that never filled a batch has them consume it here
   instead, spawning nothing.  A sink's exception wins over the engine's
   own. *)
let finish p =
  match p.plan with
  | None -> ()
  | Some { names; pipe = pl; _ } ->
      if pl.domains <> [] then begin
        Mutex.lock pl.lock;
        if pl.fill.len > 0 then pl.published <- pl.published + 1;
        pl.closed <- true;
        Condition.broadcast pl.ready;
        Mutex.unlock pl.lock;
        List.iter Domain.join pl.domains;
        Atomic.set consumer_exited true
      end
      else if pl.fill.len > 0 then
        Array.iteri
          (fun c g ->
            try consume_batch g pl.fill
            with e -> fail pl c e (Printexc.get_raw_backtrace ()))
          pl.consumers;
      p.last <-
        Some
          {
            groups = names;
            batches = pl.published;
            consumer_domains = List.length pl.domains;
            stall_s = pl.stall_s;
            idle_s = Array.fold_left ( +. ) 0. pl.idle_s;
          };
      let failure = pl.failure in
      if Array.length pl.ring > 0 then pl.fill <- pl.ring.(0);
      pl.fill.len <- 0;
      pl.published <- 0;
      Array.fill pl.finished 0 (Array.length pl.finished) 0;
      pl.closed <- false;
      pl.failure <- None;
      pl.domains <- [];
      pl.stall_s <- 0.;
      Array.fill pl.idle_s 0 (Array.length pl.idle_s) 0.;
      Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) failure

(* ---------- instrumentation ---------- *)

let key : t Type.Id.t = Type.Id.make ()

(* Each action builds its event only for group 0 and fills a row only for
   the consumers; a kind nobody wants gets no action at all. *)
let install engine p =
  let m = p.m in
  Engine.add_trace_instrumenter engine (fun ~id ~addr ~n ->
      let { inline = g; out; pipe; _ } = plan p in
      let i = g.wants.(6) and o = out.(6) and f = g.on_block in
      if i || o then
        [
          (fun () ->
            let icount = Machine.instr_count m in
            if i then f id (Event.Block_exec { icount; addr; n });
            if o then push_block pipe id icount addr n);
        ]
      else []);
  Engine.add_rtn_instrumenter engine (fun r ->
      let { inline = g; out; pipe; _ } = plan p in
      let i = g.wants.(0) and o = out.(0) and f = g.per_tag.(0) in
      let routine = r.Symtab.id in
      if i || o then
        [
          (fun () ->
            let icount = Machine.instr_count m and sp = Machine.sp m in
            if i then f (Event.Rtn_entry { icount; routine; sp });
            if o then push3 pipe 0 icount routine sp);
        ]
      else []);
  Engine.add_ins_instrumenter engine (fun view ->
      let { inline = g; out; pipe; _ } = plan p in
      let i tag = g.wants.(tag) and o tag = out.(tag) in
      let ins = Engine.Ins_view.ins view in
      let static =
        match Engine.Ins_view.routine view with
        | Some r -> r.Symtab.id
        | None -> -1
      in
      if Isa.is_prefetch ins then
        let i = i 5 and o = o 5 and f = g.per_tag.(5) in
        let size = Isa.mem_read_bytes ins in
        if i || o then
          [
            (fun () ->
              let icount = Machine.instr_count m and ea = Machine.read_ea m ins in
              if i then f (Event.Prefetch { icount; ea; size });
              if o then push3 pipe 5 icount ea size);
          ]
        else []
      else if Isa.is_block_move ins then
        let i = i 4 and o = o 4 and f = g.per_tag.(4) in
        if i || o then
          [
            (fun () ->
              let icount = Machine.instr_count m
              and src = Machine.read_ea m ins
              and dst = Machine.write_ea m ins
              and len = Machine.block_len m ins
              and sp = Machine.sp m in
              if i then
                f (Event.Block_copy { icount; static; src; dst; len; sp });
              if o then push6 pipe 4 icount static src dst len sp);
          ]
        else []
      else begin
        let rd = Isa.mem_read_bytes ins and wr = Isa.mem_write_bytes ins in
        let load =
          let i = i 2 and o = o 2 and f = g.per_tag.(2) in
          if rd > 0 && (i || o) then
            [
              Engine.predicated engine view (fun () ->
                  let icount = Machine.instr_count m
                  and ea = Machine.read_ea m ins
                  and sp = Machine.sp m in
                  if i then f (Event.Load { icount; static; ea; size = rd; sp });
                  if o then push5 pipe 2 icount static ea rd sp);
            ]
          else []
        and store =
          let i = i 3 and o = o 3 and f = g.per_tag.(3) in
          if wr > 0 && (i || o) then
            [
              Engine.predicated engine view (fun () ->
                  let icount = Machine.instr_count m
                  and ea = Machine.write_ea m ins
                  and sp = Machine.sp m in
                  if i then f (Event.Store { icount; static; ea; size = wr; sp });
                  if o then push5 pipe 3 icount static ea wr sp);
            ]
          else []
        and ret =
          let i = i 1 and o = o 1 and f = g.per_tag.(1) in
          if Isa.is_ret ins && (i || o) then
            [
              (fun () ->
                let icount = Machine.instr_count m and sp = Machine.sp m in
                if i then f (Event.Ret { icount; sp });
                if o then push2 pipe 1 icount sp);
            ]
          else []
        in
        load @ store @ ret
      end);
  Engine.add_fini engine (fun () -> finish p)

let probe engine =
  match Engine.local engine key with
  | Some p -> p
  | None ->
      let p =
        { m = Engine.machine engine; sinks = []; plan = None; last = None }
      in
      install engine p;
      Engine.set_local engine key p;
      p

let add engine sink =
  let p = probe engine in
  if Option.is_some p.plan then
    invalid_arg "Probe.attach: the engine has already instrumented code";
  p.sinks <- sink :: p.sinks

let tags_of kinds =
  let w = Array.make Event.n_kinds false in
  List.iter (fun k -> w.(Event.kind_tag k) <- true) kinds;
  w

let attach ?(name = "sink") ?(wants = Event.all_kinds) ?(cost = 0.) engine
    consume =
  add engine { name; tags = tags_of wants; cost; consume; boundary = None }

let pipeline engine =
  match Engine.local engine key with Some p -> p.last | None -> None

let record ?fuel ?chunk_bytes ?compress engine ~path =
  let m = Engine.machine engine in
  let fingerprint = Tq_vm.Program.fingerprint (Machine.program m) in
  Writer.with_file ?chunk_bytes ~fingerprint ?compress path (fun w ->
      (* block dispatches reach the writer with the engine's compiled-trace
         id — the dictionary key of v4 redundancy suppression *)
      add engine
        {
          name = "writer";
          tags = tags_of Event.all_kinds;
          cost = writer_cost;
          consume = Writer.emit w;
          boundary = Some (fun trace_id ev -> Writer.emit_boundary w ~trace_id ev);
        };
      Engine.run ?fuel engine;
      Writer.emit w (Event.End { icount = Machine.instr_count m });
      Writer.events w)
