module Isa = Tq_isa.Isa
module Engine = Tq_dbi.Engine
module Machine = Tq_vm.Machine
module Symtab = Tq_vm.Symtab
module Layout = Tq_vm.Layout
module Call_stack = Tq_prof.Call_stack
module Event = Tq_trace.Event
module Dyn = Tq_util.Dyn_array

(* Per-kernel per-slice counters, grown on demand.  Four interleaved streams
   would save allocations; four arrays keep the metric accessors trivial. *)
type kdata = {
  kr_incl : int Dyn.t;
  kr_excl : int Dyn.t;
  kw_incl : int Dyn.t;
  kw_excl : int Dyn.t;
}

type t = {
  symtab : Symtab.t;
  interval : int;
  stack : Call_stack.t;
  data : kdata option array;  (** per routine id; the kernel-to-bandwidth map *)
  mutable max_slice : int;  (** highest slice index with traffic *)
  mutable any : bool;
}

let kdata_get t id =
  match t.data.(id) with
  | Some k -> k
  | None ->
      let k =
        {
          kr_incl = Dyn.create ~dummy:0 ();
          kr_excl = Dyn.create ~dummy:0 ();
          kw_incl = Dyn.create ~dummy:0 ();
          kw_excl = Dyn.create ~dummy:0 ();
        }
      in
      t.data.(id) <- Some k;
      k

(* Split an access into stack-area and global bytes.  An access can straddle
   the boundary only in the red zone; byte-exact accounting keeps the two
   columns consistent with QUAD's. *)
let split_bytes ~sp ea size =
  if Layout.is_stack_addr ~sp ea = Layout.is_stack_addr ~sp (ea + size - 1) then
    if Layout.is_stack_addr ~sp ea then (size, 0) else (0, size)
  else begin
    let stack = ref 0 in
    for i = 0 to size - 1 do
      if Layout.is_stack_addr ~sp (ea + i) then incr stack
    done;
    (!stack, size - !stack)
  end

let record t id ~read ~icount ~sp ea size =
  let slice = icount / t.interval in
  if slice > t.max_slice then t.max_slice <- slice;
  t.any <- true;
  let k = kdata_get t id in
  let stack_bytes, global_bytes = split_bytes ~sp ea size in
  ignore stack_bytes;
  if read then begin
    Dyn.add_at ( + ) k.kr_incl slice size;
    if global_bytes > 0 then Dyn.add_at ( + ) k.kr_excl slice global_bytes
  end
  else begin
    Dyn.add_at ( + ) k.kw_incl slice size;
    if global_bytes > 0 then Dyn.add_at ( + ) k.kw_excl slice global_bytes
  end

let create ?(slice_interval = 10_000) ?(policy = Call_stack.Main_image_only)
    symtab =
  if slice_interval <= 0 then
    invalid_arg "Tquad.create: slice_interval must be positive";
  {
    symtab;
    interval = slice_interval;
    stack = Call_stack.create policy;
    data = Array.make (Symtab.count symtab) None;
    max_slice = -1;
    any = false;
  }

(* EnterFC analogue on [Rtn_entry]; IncreaseRead/IncreaseWrite return
    immediately on prefetches, so [Prefetch] events are discarded. *)
let consume t (ev : Event.t) =
  match ev with
  | Event.Load { icount; static; ea; size; sp } ->
      if size > 0 then begin
        let id = Call_stack.attribute_id t.stack t.symtab static in
        if id >= 0 then record t id ~read:true ~icount ~sp ea size
      end
  | Event.Store { icount; static; ea; size; sp } ->
      if size > 0 then begin
        let id = Call_stack.attribute_id t.stack t.symtab static in
        if id >= 0 then record t id ~read:false ~icount ~sp ea size
      end
  | Event.Rtn_entry { routine; sp; _ } ->
      Call_stack.on_entry t.stack (Symtab.by_id t.symtab routine) ~sp
  | Event.Ret { sp; _ } -> Call_stack.on_ret t.stack ~sp
  | Event.Block_copy { icount; static; src; dst; len; sp } ->
      if len > 0 then begin
        let id = Call_stack.attribute_id t.stack t.symtab static in
        if id >= 0 then begin
          record t id ~read:true ~icount ~sp src len;
          record t id ~read:false ~icount ~sp dst len
        end
      end
  | Event.Prefetch _ | Event.Block_exec _ | Event.End _ -> ()

let interest =
  Event.[ KRtn_entry; KRet; KLoad; KStore; KBlock_copy ]

let attach ?slice_interval ?policy engine =
  let machine = Engine.machine engine in
  let symtab = (Machine.program machine).Tq_vm.Program.symtab in
  let t = create ?slice_interval ?policy symtab in
  Tq_trace.Probe.attach engine (consume t);
  t

type metric = Read_incl | Read_excl | Write_incl | Write_excl

let slice_interval t = t.interval
let total_slices t = t.max_slice + 1

let kernels t =
  let out = ref [] in
  Array.iteri
    (fun id d -> if d <> None then out := Symtab.by_id t.symtab id :: !out)
    t.data;
  List.rev !out

let stream k = function
  | Read_incl -> k.kr_incl
  | Read_excl -> k.kr_excl
  | Write_incl -> k.kw_incl
  | Write_excl -> k.kw_excl

let bytes_series t routine metric =
  let n = total_slices t in
  match t.data.(routine.Symtab.id) with
  | None -> Array.make n 0
  | Some k ->
      let d = stream k metric in
      Array.init n (fun i -> Dyn.get_or d i 0)

let series t routine metric =
  let interval = float_of_int t.interval in
  Array.map (fun b -> float_of_int b /. interval) (bytes_series t routine metric)

type totals = {
  read_incl : int;
  read_excl : int;
  write_incl : int;
  write_excl : int;
  first_slice : int;
  last_slice : int;
  activity_span : int;
}

let slice_active k i =
  Dyn.get_or k.kr_incl i 0 + Dyn.get_or k.kw_incl i 0 > 0

let totals t routine =
  match t.data.(routine.Symtab.id) with
  | None ->
      {
        read_incl = 0;
        read_excl = 0;
        write_incl = 0;
        write_excl = 0;
        first_slice = -1;
        last_slice = -1;
        activity_span = 0;
      }
  | Some k ->
      let sum d = Dyn.fold ( + ) 0 d in
      let n = max (Dyn.length k.kr_incl) (Dyn.length k.kw_incl) in
      let first = ref (-1) and last = ref (-1) and act = ref 0 in
      for i = 0 to n - 1 do
        if slice_active k i then begin
          if !first = -1 then first := i;
          last := i;
          incr act
        end
      done;
      {
        read_incl = sum k.kr_incl;
        read_excl = sum k.kr_excl;
        write_incl = sum k.kw_incl;
        write_excl = sum k.kw_excl;
        first_slice = !first;
        last_slice = !last;
        activity_span = !act;
      }

let avg_bpi t routine metric =
  let tot = totals t routine in
  if tot.activity_span = 0 then 0.
  else begin
    let bytes =
      match metric with
      | Read_incl -> tot.read_incl
      | Read_excl -> tot.read_excl
      | Write_incl -> tot.write_incl
      | Write_excl -> tot.write_excl
    in
    float_of_int bytes /. float_of_int (tot.activity_span * t.interval)
  end

let max_rw_in t routine ~incl ~lo ~hi =
  match t.data.(routine.Symtab.id) with
  | None -> 0.
  | Some k ->
      let best = ref 0 in
      for i = max 0 lo to hi do
        let v =
          if incl then Dyn.get_or k.kr_incl i 0 + Dyn.get_or k.kw_incl i 0
          else Dyn.get_or k.kr_excl i 0 + Dyn.get_or k.kw_excl i 0
        in
        if v > !best then best := v
      done;
      float_of_int !best /. float_of_int t.interval

let max_rw_bpi t routine ~incl =
  max_rw_in t routine ~incl ~lo:0 ~hi:(total_slices t - 1)

let active_in t routine ~lo ~hi =
  match t.data.(routine.Symtab.id) with
  | None -> 0
  | Some k ->
      let n = ref 0 in
      for i = max 0 lo to hi do
        if slice_active k i then incr n
      done;
      !n

let range_bytes t routine metric ~lo ~hi =
  match t.data.(routine.Symtab.id) with
  | None -> 0
  | Some k ->
      let d = stream k metric in
      let acc = ref 0 in
      for i = max 0 lo to hi do
        acc := !acc + Dyn.get_or d i 0
      done;
      !acc

let active_set t slice =
  let out = ref [] in
  Array.iteri
    (fun id d ->
      match d with
      | Some k when slice_active k slice ->
          out := Symtab.by_id t.symtab id :: !out
      | _ -> ())
    t.data;
  List.rev !out
