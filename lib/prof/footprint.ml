module Isa = Tq_isa.Isa
module Engine = Tq_dbi.Engine
module Machine = Tq_vm.Machine
module Symtab = Tq_vm.Symtab
module Layout = Tq_vm.Layout
module Event = Tq_trace.Event
module Bitset = Tq_util.Paged_bitset

type region = Data | Heap | Stack

let region_name = function Data -> "data" | Heap -> "heap" | Stack -> "stack"

type t = {
  symtab : Symtab.t;
  data_end : int;
  touched : Bitset.t array;  (** per routine id *)
  stack : Call_stack.t;
}

let create ?(policy = Call_stack.Main_image_only) (prog : Tq_vm.Program.t) =
  {
    symtab = prog.Tq_vm.Program.symtab;
    data_end = prog.Tq_vm.Program.data_end;
    touched =
      Array.init (Symtab.count prog.Tq_vm.Program.symtab) (fun _ ->
          Bitset.create ());
    stack = Call_stack.create policy;
  }

let mark t static ea n =
  if n > 0 then begin
    let id = Call_stack.attribute_id t.stack t.symtab static in
    if id >= 0 then Bitset.add_range t.touched.(id) ea n
  end

let consume t (ev : Event.t) =
  match ev with
  | Event.Rtn_entry { routine; sp; _ } ->
      Call_stack.on_entry t.stack (Symtab.by_id t.symtab routine) ~sp
  | Event.Ret { sp; _ } -> Call_stack.on_ret t.stack ~sp
  | Event.Load { static; ea; size; _ } -> mark t static ea size
  | Event.Store { static; ea; size; _ } -> mark t static ea size
  | Event.Block_copy { static; src; dst; len; _ } ->
      mark t static src len;
      mark t static dst len
  | Event.Prefetch _ | Event.Block_exec _ | Event.End _ -> ()

let interest =
  Event.[ KRtn_entry; KRet; KLoad; KStore; KBlock_copy ]

let attach ?policy engine =
  let machine = Engine.machine engine in
  let t = create ?policy (Machine.program machine) in
  Tq_trace.Probe.attach engine (consume t);
  t

type region_stats = { unique_bytes : int; pages : int; lo : int; hi : int }

let empty_stats = { unique_bytes = 0; pages = 0; lo = 0; hi = 0 }

(* stack classification here is positional (the stack region of the address
   space), independent of the momentary stack pointer *)
let classify t addr =
  if addr >= Layout.stack_top - 0x1000_0000 && addr < Layout.stack_top then Stack
  else if addr >= t.data_end then Heap
  else Data

let region_rollup t id =
  let bits = t.touched.(id) in
  if Bitset.cardinal bits = 0 then []
  else begin
    let acc = Hashtbl.create 3 in
    let page_seen = Hashtbl.create 64 in
    Bitset.iter
      (fun addr ->
        let r = classify t addr in
        let cur = Option.value ~default:empty_stats (Hashtbl.find_opt acc r) in
        let page = (r, addr lsr 12) in
        let new_page = not (Hashtbl.mem page_seen page) in
        if new_page then Hashtbl.replace page_seen page ();
        Hashtbl.replace acc r
          {
            unique_bytes = cur.unique_bytes + 1;
            pages = (cur.pages + if new_page then 1 else 0);
            lo = (if cur.unique_bytes = 0 then addr else cur.lo);
            hi = addr;
          })
      bits;
    [ Data; Heap; Stack ]
    |> List.filter_map (fun r ->
           Hashtbl.find_opt acc r |> Option.map (fun s -> (r, s)))
  end

let stats t routine region =
  match List.assoc_opt region (region_rollup t routine.Symtab.id) with
  | Some s -> s
  | None -> empty_stats

let rows t =
  let out = ref [] in
  Array.iteri
    (fun id _ ->
      let rs = region_rollup t id in
      if rs <> [] then out := (Symtab.by_id t.symtab id, rs) :: !out)
    t.touched;
  List.sort
    (fun (_, a) (_, b) ->
      let total rs =
        List.fold_left (fun acc (_, s) -> acc + s.unique_bytes) 0 rs
      in
      compare (total b) (total a))
    !out

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "per-kernel memory footprint (unique bytes touched per region):\n";
  List.iter
    (fun (r, regions) ->
      Buffer.add_string buf (Printf.sprintf "  %s\n" r.Symtab.name);
      List.iter
        (fun (region, s) ->
          Buffer.add_string buf
            (Printf.sprintf
               "    %-5s %10d B unique, %6d pages, extent 0x%x..0x%x (%d B)\n"
               (region_name region) s.unique_bytes s.pages s.lo s.hi
               (s.hi - s.lo + 1)))
        regions)
    (rows t);
  Buffer.contents buf
