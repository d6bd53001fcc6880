type policy = Track_all | Main_image_only

type frame = { routine : Tq_vm.Symtab.routine; entry_sp : int }

type t = {
  policy : policy;
  mutable frames : frame list;
  mutable depth : int;
  mutable max_depth : int;
}

let create policy = { policy; frames = []; depth = 0; max_depth = 0 }
let policy t = t.policy

let tracked t (r : Tq_vm.Symtab.routine) =
  match t.policy with Track_all -> true | Main_image_only -> r.is_main_image

let on_entry t routine ~sp =
  if tracked t routine then begin
    t.frames <- { routine; entry_sp = sp } :: t.frames;
    t.depth <- t.depth + 1;
    if t.depth > t.max_depth then t.max_depth <- t.depth
  end

let on_ret t ~sp =
  match t.frames with
  | { entry_sp; _ } :: rest when entry_sp = sp ->
      t.frames <- rest;
      t.depth <- t.depth - 1
  | _ -> ()

let top t =
  match t.frames with [] -> None | f :: _ -> Some f.routine

let depth t = t.depth
let max_depth t = t.max_depth

let attribute t static =
  match t.policy with
  | Track_all -> static
  | Main_image_only -> (
      match static with
      | Some r when r.Tq_vm.Symtab.is_main_image -> static
      | _ -> top t)

(* Allocation-free variant of [attribute] over routine ids (-1 = none) for
   per-access hot paths: same policy semantics, no option boxing. *)
let attribute_id t symtab static =
  match t.policy with
  | Track_all -> static
  | Main_image_only ->
      if static >= 0 && (Tq_vm.Symtab.by_id symtab static).is_main_image then
        static
      else (
        match t.frames with
        | [] -> -1
        | f :: _ -> f.routine.Tq_vm.Symtab.id)
