module Symtab = Tq_vm.Symtab

let names = [ "tquad"; "quad"; "gprof"; "mix"; "cache"; "footprint" ]

let render_gprof g =
  Tq_report.Report.flat_profile (Tq_gprofsim.Gprofsim.flat_profile g)

let render_quad q =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Tq_report.Report.quad_table (Tq_quad.Quad.rows q));
  Buffer.add_string buf "\nbindings (heaviest first):\n";
  List.iteri
    (fun i (b : Tq_quad.Quad.binding) ->
      if i < 20 then
        Buffer.add_string buf
          (Printf.sprintf "  %-24s -> %-24s %12d B (incl), %10d UnMA\n"
             b.producer.Symtab.name b.consumer.Symtab.name b.bytes_incl b.unma))
    (Tq_quad.Quad.bindings q);
  Buffer.contents buf

let render_tquad ~slice t =
  let buf = Buffer.create 4096 in
  let kernels = Tq_tquad.Tquad.kernels t in
  Buffer.add_string buf
    (Printf.sprintf "%d time slices of %d instructions; %d kernels\n"
       (Tq_tquad.Tquad.total_slices t) slice (List.length kernels));
  List.iter
    (fun r ->
      let tot = Tq_tquad.Tquad.totals t r in
      Buffer.add_string buf
        (Printf.sprintf
           "  %-24s slices %6d-%-6d act %6d  R %9d/%9d  W %9d/%9d  max RW \
            %8.4f B/ins\n"
           r.Symtab.name tot.Tq_tquad.Tquad.first_slice tot.last_slice
           tot.activity_span tot.read_incl tot.read_excl tot.write_incl
           tot.write_excl
           (Tq_tquad.Tquad.max_rw_bpi t r ~incl:true)))
    kernels;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Tq_report.Report.figure t ~metric:Tq_tquad.Tquad.Read_incl ~kernels
       ~title:"read bandwidth (stack incl.)" ());
  Buffer.contents buf

let render_mix mix =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Tq_prof.Ins_mix.render mix);
  Buffer.add_string buf "\nper kernel:\n";
  List.iter
    (fun (r, counts) ->
      let total = Array.fold_left ( + ) 0 counts in
      if total > 0 then begin
        Buffer.add_string buf (Printf.sprintf "  %-24s %9d:" r.Symtab.name total);
        List.iteri
          (fun i c ->
            if counts.(i) > 0 then
              Buffer.add_string buf
                (Printf.sprintf " %s %d" (Tq_prof.Ins_mix.category_name c)
                   counts.(i)))
          Tq_prof.Ins_mix.categories;
        Buffer.add_char buf '\n'
      end)
    (Tq_prof.Ins_mix.per_kernel mix);
  Buffer.contents buf

(* Each job carries a replay cost weight: the tool's sink cost on wfs
   default (v4, 24.1M events, 2-core x86-64 box), i.e. its solo replay
   wall minus a bare decode pass (0.48 s) — what the bench reports as
   [<tool>.sink_s].  [Replay.parallel] balances its per-domain tool groups
   on these weights; only their ratios matter.  Weighting by whole solo
   walls instead would count the decode every domain pays anyway, and put
   quad with cache: 2.42 s against 2.00 s per domain, vs 2.03/2.30 s
   with these. *)
let job ~prog ~slice ~period name =
  let symtab = prog.Tq_vm.Program.symtab in
  let job = Tq_trace.Replay.job in
  match name with
  | "tquad" ->
      Ok
        (job ~wants:Tq_tquad.Tquad.interest ~cost:0.53 "tquad" (fun () ->
             let t = Tq_tquad.Tquad.create ~slice_interval:slice symtab in
             (Tq_tquad.Tquad.consume t, fun () -> render_tquad ~slice t)))
  | "quad" ->
      Ok
        (job ~wants:Tq_quad.Quad.interest ~cost:1.31 "quad" (fun () ->
             let q = Tq_quad.Quad.create symtab in
             (Tq_quad.Quad.consume q, fun () -> render_quad q)))
  | "gprof" ->
      Ok
        (job ~wants:Tq_gprofsim.Gprofsim.interest ~cost:0.05 "gprof" (fun () ->
             let g = Tq_gprofsim.Gprofsim.create ~period symtab in
             (Tq_gprofsim.Gprofsim.consume g, fun () -> render_gprof g)))
  | "mix" ->
      Ok
        (job ~wants:Tq_prof.Ins_mix.interest ~cost:0.05 "mix" (fun () ->
             let mix = Tq_prof.Ins_mix.create prog in
             (Tq_prof.Ins_mix.consume mix, fun () -> render_mix mix)))
  | "cache" ->
      Ok
        (job ~wants:Tq_prof.Cache_sim.interest ~cost:0.31 "cache" (fun () ->
             let c = Tq_prof.Cache_sim.create symtab in
             (Tq_prof.Cache_sim.consume c, fun () -> Tq_prof.Cache_sim.render c)))
  | "footprint" ->
      Ok
        (job ~wants:Tq_prof.Footprint.interest ~cost:0.54 "footprint"
           (fun () ->
             let f = Tq_prof.Footprint.create prog in
             (Tq_prof.Footprint.consume f, fun () -> Tq_prof.Footprint.render f)))
  | other ->
      Error
        (Printf.sprintf "unknown tool %s (have: %s)" other
           (String.concat ", " names))
