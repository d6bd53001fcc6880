module Isa = Tq_isa.Isa
module Engine = Tq_dbi.Engine
module Machine = Tq_vm.Machine
module Symtab = Tq_vm.Symtab
module Layout = Tq_vm.Layout
module Call_stack = Tq_prof.Call_stack
module Event = Tq_trace.Event
module Bitset = Tq_util.Paged_bitset

type edge = {
  mutable e_bytes_excl : int;
  mutable e_bytes_incl : int;
  e_addrs : Bitset.t;
}

type t = {
  symtab : Symtab.t;
  stack : Call_stack.t;
  shadow : Shadow.t;
  (* per routine id *)
  in_excl : int array;
  in_incl : int array;
  out_excl : int array;
  out_incl : int array;
  read_unma_excl : Bitset.t array;
  read_unma_incl : Bitset.t array;
  write_unma_excl : Bitset.t array;
  write_unma_incl : Bitset.t array;
  edges : (int, edge) Hashtbl.t;  (** key: producer * 2^20 + consumer *)
  mutable touched : bool array;  (** routines with any traffic *)
  (* last edge charged: a multi-byte access usually has one producer, so
     this skips the hash lookup almost always *)
  mutable last_edge_key : int;
  mutable last_edge : edge;
}

let edge_key p c = (p lsl 20) lor c

let no_edge = { e_bytes_excl = 0; e_bytes_incl = 0; e_addrs = Bitset.create () }

let edge_of t key =
  if key = t.last_edge_key then t.last_edge
  else begin
    let e =
      match Hashtbl.find_opt t.edges key with
      | Some e -> e
      | None ->
          let e =
            { e_bytes_excl = 0; e_bytes_incl = 0; e_addrs = Bitset.create () }
          in
          Hashtbl.add t.edges key e;
          e
    in
    t.last_edge_key <- key;
    t.last_edge <- e;
    e
  end

(* The loops below only keep per-byte work that genuinely varies per byte
   (shadow producer changes; stack classification when the access straddles
   the stack boundary).  Everything uniform over the access — and every
   maximal run of one producer — is charged as one range/counter update,
   byte-for-byte equivalent to a per-byte walk. *)

let charge t kernel_id p addr len ~stack =
  t.out_incl.(p) <- t.out_incl.(p) + len;
  if not stack then t.out_excl.(p) <- t.out_excl.(p) + len;
  let e = edge_of t (edge_key p kernel_id) in
  e.e_bytes_incl <- e.e_bytes_incl + len;
  if not stack then e.e_bytes_excl <- e.e_bytes_excl + len;
  Bitset.add_range e.e_addrs addr len

let on_read t kernel_id ea size sp =
  t.touched.(kernel_id) <- true;
  if size > 0 then begin
    let lo_stack = Layout.is_stack_addr ~sp ea in
    let uniform = lo_stack = Layout.is_stack_addr ~sp (ea + size - 1) in
    t.in_incl.(kernel_id) <- t.in_incl.(kernel_id) + size;
    Bitset.add_range t.read_unma_incl.(kernel_id) ea size;
    if uniform then begin
      if not lo_stack then begin
        t.in_excl.(kernel_id) <- t.in_excl.(kernel_id) + size;
        Bitset.add_range t.read_unma_excl.(kernel_id) ea size
      end;
      (* run-collapsed producer scan: fetch each shadow page once and charge
         maximal same-producer runs in one go *)
      let pos = ref 0 in
      while !pos < size do
        let addr = ea + !pos in
        let page = Shadow.page_ro t.shadow addr in
        let off = addr land Shadow.page_mask in
        let span = min (size - !pos) (Shadow.page_size - off) in
        let k = ref 0 in
        while !k < span do
          let run0 = !k in
          let p = Array.unsafe_get page (off + !k) in
          incr k;
          while !k < span && Array.unsafe_get page (off + !k) = p do
            incr k
          done;
          if p >= 0 then
            charge t kernel_id p (addr + run0) (!k - run0) ~stack:lo_stack
        done;
        pos := !pos + span
      done
    end
    else
      (* straddles the stack boundary: rare, keep the per-byte walk *)
      for i = 0 to size - 1 do
        let addr = ea + i in
        let is_stack = Layout.is_stack_addr ~sp addr in
        if not is_stack then begin
          t.in_excl.(kernel_id) <- t.in_excl.(kernel_id) + 1;
          Bitset.add t.read_unma_excl.(kernel_id) addr
        end;
        let p = Shadow.get t.shadow addr in
        if p >= 0 then charge t kernel_id p addr 1 ~stack:is_stack
      done
  end

let on_write t kernel_id ea size sp =
  t.touched.(kernel_id) <- true;
  if size > 0 then begin
    let lo_stack = Layout.is_stack_addr ~sp ea in
    let uniform = lo_stack = Layout.is_stack_addr ~sp (ea + size - 1) in
    Bitset.add_range t.write_unma_incl.(kernel_id) ea size;
    if uniform then begin
      if not lo_stack then
        Bitset.add_range t.write_unma_excl.(kernel_id) ea size
    end
    else
      for i = 0 to size - 1 do
        if not (Layout.is_stack_addr ~sp (ea + i)) then
          Bitset.add t.write_unma_excl.(kernel_id) (ea + i)
      done;
    Shadow.set_range t.shadow ea size kernel_id
  end

let create ?(policy = Call_stack.Main_image_only) symtab =
  let n = Symtab.count symtab in
  {
    symtab;
    stack = Call_stack.create policy;
    shadow = Shadow.create ();
    in_excl = Array.make n 0;
    in_incl = Array.make n 0;
    out_excl = Array.make n 0;
    out_incl = Array.make n 0;
    read_unma_excl = Array.init n (fun _ -> Bitset.create ());
    read_unma_incl = Array.init n (fun _ -> Bitset.create ());
    write_unma_excl = Array.init n (fun _ -> Bitset.create ());
    write_unma_incl = Array.init n (fun _ -> Bitset.create ());
    edges = Hashtbl.create 256;
    touched = Array.make n false;
    last_edge_key = -1;
    last_edge = no_edge;
  }

(* A zero-length block copy still marks the kernel as touched (on_read /
   on_write run with size 0), matching the original instrumentation where
   the action fired regardless of the dynamic length. *)
let consume t (ev : Event.t) =
  match ev with
  | Event.Load { static; ea; size; sp; _ } ->
      let id = Call_stack.attribute_id t.stack t.symtab static in
      if id >= 0 then on_read t id ea size sp
  | Event.Store { static; ea; size; sp; _ } ->
      let id = Call_stack.attribute_id t.stack t.symtab static in
      if id >= 0 then on_write t id ea size sp
  | Event.Rtn_entry { routine; sp; _ } ->
      Call_stack.on_entry t.stack (Symtab.by_id t.symtab routine) ~sp
  | Event.Ret { sp; _ } ->
      (* return monitoring keeps the internal call stack consistent; the
         event is emitted after the ret's own 8-byte stack read *)
      Call_stack.on_ret t.stack ~sp
  | Event.Block_copy { static; src; dst; len; sp; _ } ->
      let id = Call_stack.attribute_id t.stack t.symtab static in
      if id >= 0 then begin
        on_read t id src len sp;
        on_write t id dst len sp
      end
  | Event.Prefetch _ | Event.Block_exec _ | Event.End _ -> ()

let interest =
  Event.[ KRtn_entry; KRet; KLoad; KStore; KBlock_copy ]

let attach ?policy engine =
  let machine = Engine.machine engine in
  let symtab = (Machine.program machine).Tq_vm.Program.symtab in
  let t = create ?policy symtab in
  Tq_trace.Probe.attach engine (consume t);
  t

type krow = {
  routine : Symtab.routine;
  in_bytes : int;
  in_unma : int;
  out_bytes : int;
  out_unma : int;
  in_bytes_incl : int;
  in_unma_incl : int;
  out_bytes_incl : int;
  out_unma_incl : int;
}

let rows t =
  let out = ref [] in
  Array.iteri
    (fun id touched ->
      if touched then begin
        let routine = Symtab.by_id t.symtab id in
        out :=
          {
            routine;
            in_bytes = t.in_excl.(id);
            in_unma = Bitset.cardinal t.read_unma_excl.(id);
            out_bytes = t.out_excl.(id);
            out_unma = Bitset.cardinal t.write_unma_excl.(id);
            in_bytes_incl = t.in_incl.(id);
            in_unma_incl = Bitset.cardinal t.read_unma_incl.(id);
            out_bytes_incl = t.out_incl.(id);
            out_unma_incl = Bitset.cardinal t.write_unma_incl.(id);
          }
          :: !out
      end)
    t.touched;
  List.sort (fun a b -> compare a.routine.Symtab.name b.routine.Symtab.name) !out

type binding = {
  producer : Symtab.routine;
  consumer : Symtab.routine;
  bytes : int;
  bytes_incl : int;
  unma : int;
}

let bindings t =
  Hashtbl.fold
    (fun key e acc ->
      let p = key lsr 20 and c = key land 0xfffff in
      {
        producer = Symtab.by_id t.symtab p;
        consumer = Symtab.by_id t.symtab c;
        bytes = e.e_bytes_excl;
        bytes_incl = e.e_bytes_incl;
        unma = Bitset.cardinal e.e_addrs;
      }
      :: acc)
    t.edges []
  |> List.sort (fun a b ->
         (* tie-break on the routine pair: the fold order above follows
            hashtable layout, which is not part of the report *)
         match compare b.bytes_incl a.bytes_incl with
         | 0 ->
             compare
               (a.producer.Symtab.id, a.consumer.Symtab.id)
               (b.producer.Symtab.id, b.consumer.Symtab.id)
         | c -> c)

let to_dot ?(min_bytes = 1) t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph QDU {\n  rankdir=LR;\n  node [shape=box];\n";
  let nodes = Hashtbl.create 32 in
  let want = List.filter (fun b -> b.bytes_incl >= min_bytes) (bindings t) in
  List.iter
    (fun b ->
      Hashtbl.replace nodes b.producer.Symtab.name ();
      Hashtbl.replace nodes b.consumer.Symtab.name ())
    want;
  Hashtbl.iter
    (fun name () -> Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" name))
    nodes;
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%d B / %d UnMA\"];\n"
           b.producer.Symtab.name b.consumer.Symtab.name b.bytes_incl b.unma))
    want;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let shadow_pages t = Shadow.page_count t.shadow
