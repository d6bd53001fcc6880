(* The repository benchmark.

     tqbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   runs one workload for S seconds on inputs made from seed N, checks its
   outputs and prints, as the last line of standard output, one JSON
   object: {"correct", "attempted", "failed", "metrics"}, the metrics a
   bare name -> value map of what the run measured (null: could not be
   measured).  With --trace 0 they are the end-to-end metrics; with
   --trace 1 the per-layer ones, and the run's spans are written to
   DIR/traces as Chrome-trace JSON.  run.py checks the names against
   BENCHMARK.json, which holds their units.  The exit code is 0 only when
   every check passed. *)

open Common

let workloads = [ "wfs-live"; "wfs-v4"; "serve-mix" ]

let run_workload name ~traced ~seed ~seconds ~work r spans =
  match name with
  | "wfs-live" -> Wfs_work.live ~traced ~seed ~seconds r spans
  | "wfs-v4" -> Wfs_work.recorded ~traced ~seed ~seconds ~work r spans
  | "serve-mix" -> Serve_mix.run ~traced ~seed ~seconds ~work r spans
  | other -> invalid_arg other

let json_number v = Printf.sprintf "%.17g" v

let print_self_times spans =
  print_endline "self time by span (s):";
  List.iteri
    (fun i (name, s) -> if i < 30 then Printf.printf "  %-24s %10.4f\n" name s)
    (Spans.self_times spans)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref ".perfbench" in
  let usage = "tqbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--out", Arg.Set_string out, "DIR scratch files and span traces");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%d\n%!" !workload
    !seed !seconds !trace;
  let work = Filename.concat !out (Printf.sprintf "work-%d" (Unix.getpid ())) in
  mkdir_p work;
  let spans = Spans.create ~on:traced in
  let r = new_result () in
  (try
     run_workload !workload ~traced ~seed:!seed ~seconds:!seconds ~work r spans
   with e -> note_failure r ("error: " ^ Printexc.to_string e));
  remove_tree work;
  (* a metric set twice keeps its last value *)
  let values =
    List.fold_left
      (fun acc (name, v) -> if List.mem_assoc name acc then acc else (name, v) :: acc)
      [] r.metrics
  in
  (* a metric that could not be measured makes the run incorrect without
     being a failed operation *)
  let unmeasured =
    List.filter_map (fun (name, v) -> if Float.is_finite v then None else Some name) values
  in
  if traced then begin
    let dir = Filename.concat !out "traces" in
    mkdir_p dir;
    let file = Filename.concat dir (Printf.sprintf "%s-seed%d.json" !workload !seed) in
    Spans.write_chrome spans file;
    Printf.printf "spans: %s\n" file;
    print_self_times spans
  end;
  List.iter (fun (name, v) -> Printf.printf "  %-24s %14.6g\n" name v) values;
  List.iter (fun n -> Printf.printf "FAILED: %s\n" n) (List.rev r.notes);
  List.iter (fun n -> Printf.printf "NOT MEASURED: %s\n" n) unmeasured;
  let correct = r.failed = 0 && unmeasured = [] in
  let metrics =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: %s" name (if Float.is_finite v then json_number v else "null"))
      values
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 r.attempted) r.failed (String.concat ", " metrics);
  exit (if correct then 0 else 1)
