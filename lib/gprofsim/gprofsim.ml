module Isa = Tq_isa.Isa
module Engine = Tq_dbi.Engine
module Machine = Tq_vm.Machine
module Symtab = Tq_vm.Symtab
module Call_stack = Tq_prof.Call_stack
module Event = Tq_trace.Event

type t = {
  symtab : Symtab.t;
  period : int;
  clock_hz : float;
  samples : int array;  (** per routine id *)
  calls : int array;
  arc_counts : (int, int) Hashtbl.t;  (** caller * 2^20 + callee *)
  stack : Call_stack.t;
  mutable next_sample : int;
  mutable n_samples : int;
}

let arc_key a b = (a lsl 20) lor b

let create ?(period = 10_000) ?(clock_hz = 1e9) symtab =
  if period <= 0 then invalid_arg "Gprofsim.create: period must be positive";
  let n = Symtab.count symtab in
  {
    symtab;
    period;
    clock_hz;
    samples = Array.make n 0;
    calls = Array.make n 0;
    arc_counts = Hashtbl.create 64;
    stack = Call_stack.create Call_stack.Track_all;
    next_sample = period;
    n_samples = 0;
  }

(* PC sampling (timer-interrupt analogue): a sample fires on the first
   instruction whose retired count reaches [next_sample].  The sampled
   routine is the one statically containing the pc, exactly as the engine's
   [Ins_view.routine] (both are [Symtab.find]).  Sampling only reads
   per-instruction static state and call accounting never reads the sample
   counters, so processing a whole block's samples at its [Block_exec]
   event yields the same counters as the live interleaving. *)
let sample_block t ~icount ~addr ~n =
  if icount + n > t.next_sample then
    for j = 0 to n - 1 do
      let now = icount + j in
      if now >= t.next_sample then begin
        (match Symtab.find t.symtab (addr + (j * Isa.ins_bytes)) with
        | Some r -> t.samples.(r.Symtab.id) <- t.samples.(r.Symtab.id) + 1
        | None -> ());
        t.n_samples <- t.n_samples + 1;
        while t.next_sample <= now do
          t.next_sample <- t.next_sample + t.period
        done
      end
    done

let consume t (ev : Event.t) =
  match ev with
  | Event.Block_exec { icount; addr; n } -> sample_block t ~icount ~addr ~n
  | Event.Rtn_entry { routine; sp; _ } ->
      (* call accounting at routine granularity *)
      let r = Symtab.by_id t.symtab routine in
      t.calls.(routine) <- t.calls.(routine) + 1;
      (match Call_stack.top t.stack with
      | Some caller ->
          let key = arc_key caller.Symtab.id routine in
          Hashtbl.replace t.arc_counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.arc_counts key))
      | None -> ());
      Call_stack.on_entry t.stack r ~sp
  | Event.Ret { sp; _ } -> Call_stack.on_ret t.stack ~sp
  | Event.Load _ | Event.Store _ | Event.Block_copy _ | Event.Prefetch _
  | Event.End _ ->
      ()

let interest = Event.[ KRtn_entry; KRet; KBlock_exec ]

let attach ?period ?clock_hz engine =
  let machine = Engine.machine engine in
  let symtab = (Machine.program machine).Tq_vm.Program.symtab in
  let t = create ?period ?clock_hz symtab in
  Tq_trace.Probe.attach engine (consume t);
  t

(* ---------- flat profile with gprof time propagation ---------- *)

type row = {
  routine : Symtab.routine;
  pct_time : float;
  self_seconds : float;
  calls : int;
  self_ms_per_call : float;
  total_ms_per_call : float;
  samples : int;
}

(* Tarjan strongly-connected components over the call graph. *)
let sccs n succs =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let counter = ref 0 in
  let n_comp = ref 0 in
  let rec strong v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) = -1 then begin
          strong w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (succs v);
    if lowlink.(v) = index.(v) then begin
      let c = !n_comp in
      incr n_comp;
      let rec pop () =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp.(w) <- c;
            if w <> v then pop ()
        | [] -> ()
      in
      pop ()
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strong v
  done;
  (comp, !n_comp)

let totals (t : t) =
  let n = Array.length t.samples in
  let succs_tbl = Array.make n [] in
  Hashtbl.iter
    (fun key count ->
      let a = key lsr 20 and b = key land 0xfffff in
      succs_tbl.(a) <- (b, count) :: succs_tbl.(a))
    t.arc_counts;
  (* hashtable iteration order depends on insertion order; sort the
     successor lists so component ids and float-propagation order depend
     only on the arc contents *)
  Array.iteri (fun i l -> succs_tbl.(i) <- List.sort compare l) succs_tbl;
  let comp, n_comp = sccs n (fun v -> List.map fst succs_tbl.(v)) in
  (* aggregate per component *)
  let comp_self = Array.make n_comp 0. in
  for v = 0 to n - 1 do
    let c = comp.(v) in
    comp_self.(c) <- comp_self.(c) +. float_of_int t.samples.(v)
  done;
  (* condensation edges with arc counts *)
  let comp_succs = Array.make n_comp [] in
  for v = 0 to n - 1 do
    List.iter
      (fun (w, count) ->
        if comp.(v) <> comp.(w) then
          comp_succs.(comp.(v)) <- (comp.(w), w, count) :: comp_succs.(comp.(v)))
      succs_tbl.(v)
  done;
  (* Tarjan emits components in reverse topological order: successors of a
     component always have a smaller component id, so propagating in
     ascending id order visits callees before callers. *)
  let comp_total = Array.make n_comp 0. in
  for c = 0 to n_comp - 1 do
    comp_total.(c) <- comp_self.(c)
  done;
  (* process ascending: when we reach caller c, all its callee components
     (smaller ids) already hold their final totals *)
  for c = 0 to n_comp - 1 do
    List.iter
      (fun (child_comp, callee, arc_count) ->
        let callee_calls = t.calls.(callee) in
        if callee_calls > 0 then begin
          let share =
            comp_total.(child_comp) *. float_of_int arc_count
            /. float_of_int callee_calls
          in
          comp_total.(c) <- comp_total.(c) +. share
        end)
      comp_succs.(c)
  done;
  (* each routine reports its component's total (gprof cycle behaviour);
     routines alone in a non-recursive component report self + children *)
  Array.init n (fun v -> comp_total.(comp.(v)))

let seconds_of_samples (t : t) s = float_of_int s *. float_of_int t.period /. t.clock_hz

let flat_profile ?(main_image_only = true) (t : t) =
  let total_samples = Array.fold_left ( + ) 0 t.samples in
  let totals = totals t in
  let rows = ref [] in
  Array.iteri
    (fun id s ->
      let routine = Symtab.by_id t.symtab id in
      let visible =
        (s > 0 || t.calls.(id) > 0)
        && ((not main_image_only) || routine.Symtab.is_main_image)
      in
      if visible then begin
        let self_seconds = seconds_of_samples t s in
        let calls = t.calls.(id) in
        let total_seconds =
          totals.(id) *. float_of_int t.period /. t.clock_hz
        in
        rows :=
          {
            routine;
            pct_time =
              (if total_samples = 0 then 0.
               else 100. *. float_of_int s /. float_of_int total_samples);
            self_seconds;
            calls;
            self_ms_per_call =
              (if calls = 0 then 0. else self_seconds *. 1000. /. float_of_int calls);
            total_ms_per_call =
              (if calls = 0 then 0. else total_seconds *. 1000. /. float_of_int calls);
            samples = s;
          }
          :: !rows
      end)
    t.samples;
  List.sort
    (fun a b ->
      match compare b.self_seconds a.self_seconds with
      | 0 -> compare a.routine.Symtab.name b.routine.Symtab.name
      | c -> c)
    !rows

let arcs (t : t) =
  Hashtbl.fold
    (fun key count acc ->
      (Symtab.by_id t.symtab (key lsr 20), Symtab.by_id t.symtab (key land 0xfffff), count)
      :: acc)
    t.arc_counts []
  |> List.sort (fun ((ca : Symtab.routine), (ea : Symtab.routine), a)
                    ((cb : Symtab.routine), (eb : Symtab.routine), b) ->
         (* count-descending with a caller/callee-id tiebreak: hashtable
            fold order varies with insertion order, so ties must not
            depend on it *)
         match compare b a with
         | 0 -> compare (ca.Symtab.id, ea.Symtab.id) (cb.Symtab.id, eb.Symtab.id)
         | c -> c)

let total_samples t = t.n_samples

let total_seconds t = seconds_of_samples t t.n_samples

let call_graph_report ?(main_image_only = true) (t : t) =
  let rows = flat_profile ~main_image_only:false t in
  let totals = totals t in
  let buf = Buffer.create 4096 in
  let arcs_list = arcs t in
  let visible (r : Symtab.routine) =
    (not main_image_only) || r.Symtab.is_main_image
  in
  let by_total =
    rows
    |> List.filter (fun r -> visible r.routine)
    |> List.sort (fun a b ->
           compare totals.(b.routine.Symtab.id) totals.(a.routine.Symtab.id))
  in
  List.iter
    (fun (row : row) ->
      let id = row.routine.Symtab.id in
      Buffer.add_string buf
        (Printf.sprintf "[%s] self %.4fs, total %.4fs, %d calls\n"
           row.routine.Symtab.name row.self_seconds
           (totals.(id) *. float_of_int t.period /. t.clock_hz)
           row.calls);
      List.iter
        (fun (caller, callee, count) ->
          if callee.Symtab.id = id && row.calls > 0 then
            Buffer.add_string buf
              (Printf.sprintf "    <- %-24s %8d/%d\n" caller.Symtab.name count
                 row.calls))
        arcs_list;
      List.iter
        (fun (caller, callee, count) ->
          if caller.Symtab.id = id then
            Buffer.add_string buf
              (Printf.sprintf "    -> %-24s %8d\n" callee.Symtab.name count))
        arcs_list;
      Buffer.add_char buf '\n')
    by_total;
  Buffer.contents buf
