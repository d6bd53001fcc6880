open Tq_isa
open Tq_vm
open Tq_asm
open Tq_dbi

(* A program with a loop doing loads and stores, plus a helper routine, used
   by most engine tests:

     _start: calls touch(3 times) in a loop, then exits.
     touch:  one 8-byte load + one 8-byte store on "buf".  *)

let loop_iters = 3

let program () =
  Link.link
    [
      {
        Link.uname = "main";
        main_image = true;
        data = [ { Link.dname = "buf"; init = Zero 64 } ];
        routines =
          [
            {
              Link.rname = "_start";
              body =
                (let b = Builder.create () in
                 Builder.ins b (Isa.Li (24, loop_iters));
                 let loop = Builder.fresh_label b in
                 let done_ = Builder.fresh_label b in
                 Builder.place b loop;
                 Builder.bz b 24 done_;
                 Builder.call b "touch";
                 Builder.ins b (Isa.Bin (Isa.Sub, 24, 24, Isa.Imm 1));
                 Builder.jmp b loop;
                 Builder.place b done_;
                 Builder.ins b (Isa.Li (Isa.reg_a0, 0));
                 Builder.ins b (Isa.Syscall Sysno.exit);
                 b);
            };
            {
              Link.rname = "touch";
              body =
                (let b = Builder.create () in
                 Builder.la b 20 "buf";
                 Builder.ins b
                   (Isa.Load
                      { width = Isa.W8; dst = 10; base = 20; off = 0; pred = None });
                 Builder.ins b (Isa.Bin (Isa.Add, 10, 10, Isa.Imm 1));
                 Builder.ins b
                   (Isa.Store
                      { width = Isa.W8; src = 10; base = 20; off = 0; pred = None });
                 Builder.ins b Isa.Ret;
                 b);
            };
          ];
      };
    ]

let test_instruction_counting () =
  let m = Machine.create (program ()) in
  let eng = Engine.create m in
  let counted = ref 0 in
  Engine.add_ins_instrumenter eng (fun _v -> [ (fun () -> incr counted) ]);
  Engine.run eng;
  Alcotest.(check bool) "halted" true (Machine.halted m);
  Alcotest.(check int) "analysis fired once per retired instruction"
    (Machine.instr_count m) !counted

let test_load_store_counting () =
  let m = Machine.create (program ()) in
  let eng = Engine.create m in
  let loads = ref 0 and stores = ref 0 and load_bytes = ref 0 in
  Engine.add_ins_instrumenter eng (fun v ->
      let i = Engine.Ins_view.ins v in
      let acc = ref [] in
      if Isa.reads_memory i && not (Isa.is_prefetch i) then begin
        let n = Isa.mem_read_bytes i in
        acc :=
          (fun () ->
            incr loads;
            load_bytes := !load_bytes + n)
          :: !acc
      end;
      if Isa.writes_memory i then acc := (fun () -> incr stores) :: !acc;
      !acc);
  Engine.run eng;
  (* per iteration: call (store) + explicit load + explicit store + ret (load).
     _start itself performs loop_iters calls; no other memory traffic. *)
  Alcotest.(check int) "loads = explicit + rets" (2 * loop_iters) !loads;
  Alcotest.(check int) "stores = explicit + calls" (2 * loop_iters) !stores;
  Alcotest.(check int) "load bytes" (16 * loop_iters) !load_bytes

let test_effective_addresses () =
  let prog = program () in
  let m = Machine.create prog in
  let eng = Engine.create m in
  (* "buf" is the first (only) datum, so it lands exactly at data_base. *)
  let buf_addr = Layout.data_base in
  let seen_global_reads = ref [] in
  Engine.add_ins_instrumenter eng (fun v ->
      let i = Engine.Ins_view.ins v in
      match i with
      | Isa.Load _ ->
          [
            (fun () ->
              seen_global_reads := Machine.read_ea m i :: !seen_global_reads);
          ]
      | _ -> []);
  Engine.run eng;
  Alcotest.(check int) "one global load per iter" loop_iters
    (List.length !seen_global_reads);
  List.iter
    (fun ea -> Alcotest.(check int) "ea = buf" buf_addr ea)
    !seen_global_reads

let test_rtn_instrumenter () =
  let m = Machine.create (program ()) in
  let eng = Engine.create m in
  let entries = Hashtbl.create 4 in
  Engine.add_rtn_instrumenter eng (fun r ->
      let name = r.Symtab.name in
      [
        (fun () ->
          Hashtbl.replace entries name
            (1 + Option.value ~default:0 (Hashtbl.find_opt entries name)));
      ]);
  Engine.run eng;
  Alcotest.(check (option int)) "_start entered once" (Some 1)
    (Hashtbl.find_opt entries "_start");
  Alcotest.(check (option int)) "touch entered per loop" (Some loop_iters)
    (Hashtbl.find_opt entries "touch")

let test_predicated_analysis () =
  let prog =
    Link.link
      [
        {
          Link.uname = "main";
          main_image = true;
          data = [ { Link.dname = "buf"; init = Zero 16 } ];
          routines =
            [
              {
                Link.rname = "_start";
                body =
                  (let b = Builder.create () in
                   Builder.la b 20 "buf";
                   Builder.ins b (Isa.Li (11, 0));
                   Builder.ins b (Isa.Li (12, 1));
                   Builder.ins b (Isa.Li (10, 5));
                   Builder.ins b
                     (Isa.Store
                        { width = Isa.W8; src = 10; base = 20; off = 0; pred = Some 11 });
                   Builder.ins b
                     (Isa.Store
                        { width = Isa.W8; src = 10; base = 20; off = 8; pred = Some 12 });
                   Builder.ins b (Isa.Li (Isa.reg_a0, 0));
                   Builder.ins b (Isa.Syscall Sysno.exit);
                   b);
              };
            ];
        };
      ]
  in
  let m = Machine.create prog in
  let eng = Engine.create m in
  let fired = ref 0 in
  Engine.add_ins_instrumenter eng (fun v ->
      match Engine.Ins_view.ins v with
      | Isa.Store _ ->
          [ Engine.predicated eng v (fun () -> incr fired) ]
      | _ -> []);
  Engine.run eng;
  Alcotest.(check int) "only true-predicate store analysed" 1 !fired

let test_code_cache_stats () =
  let m = Machine.create (program ()) in
  let eng = Engine.create m in
  Engine.add_ins_instrumenter eng (fun _ -> []);
  Engine.run eng;
  let s = Engine.stats eng in
  Alcotest.(check bool) "some traces compiled" true (s.compiled_traces > 0);
  Alcotest.(check bool) "hits happened (loop reuses blocks)" true
    (s.lookups > s.misses);
  Alcotest.(check int) "with cache, misses = distinct traces" s.compiled_traces
    s.misses

let test_no_code_cache () =
  let m = Machine.create (program ()) in
  let eng = Engine.create ~use_code_cache:false m in
  Engine.add_ins_instrumenter eng (fun _ -> []);
  Engine.run eng;
  let s = Engine.stats eng in
  Alcotest.(check int) "every lookup misses" s.lookups s.misses;
  Alcotest.(check int) "recompiled every time" s.lookups s.compiled_traces

let test_chaining_stats () =
  (* the loop's blocks end in direct transfers, so after the first lap every
     dispatch except the indirect Ret follows a cached trace link *)
  let m = Machine.create (program ()) in
  let eng = Engine.create m in
  Engine.run eng;
  let s = Engine.stats eng in
  Alcotest.(check bool) "steady state follows trace links" true
    (s.chain_hits > 0);
  Alcotest.(check bool) "chain hits are a subset of dispatches" true
    (s.chain_hits <= s.lookups - s.misses);
  Alcotest.(check int) "every compiled instruction is closure-compiled"
    s.compiled_instructions s.closure_instructions

let test_no_closure_compilation_without_cache () =
  let m = Machine.create (program ()) in
  let eng = Engine.create ~use_code_cache:false m in
  Engine.run eng;
  let s = Engine.stats eng in
  Alcotest.(check int) "reference path never closure-compiles" 0
    s.closure_instructions;
  Alcotest.(check int) "reference path never chains" 0 s.chain_hits

let test_uninstrumented_equivalence () =
  (* The engine must not perturb architectural results. *)
  let m1 = Machine.create (program ()) in
  Executor.run m1;
  let m2 = Machine.create (program ()) in
  let eng = Engine.create m2 in
  Engine.add_ins_instrumenter eng (fun _v -> [ (fun () -> ()) ]);
  Engine.run eng;
  Alcotest.(check int) "same instruction count" (Machine.instr_count m1)
    (Machine.instr_count m2);
  Alcotest.(check (option int)) "same exit code" (Machine.exit_code m1)
    (Machine.exit_code m2)

let test_instrumenter_registration_frozen () =
  let m = Machine.create (program ()) in
  let eng = Engine.create m in
  Engine.add_ins_instrumenter eng (fun v ->
      if Engine.Ins_view.addr v = 0 then []
      else
        [
          (fun () ->
            (* registering from inside a run must fail *)
            match Engine.add_ins_instrumenter eng (fun _ -> []) with
            | () -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ -> ());
        ]);
  Engine.run eng

exception Fini_failed
exception Analysis_failed

(* Finis run in order when [run] returns and before an exception leaves
   it; a raising fini replaces the run's outcome. *)
let test_fini () =
  let log = ref [] in
  let with_finis ?(raising_fini = false) ?(raising_run = false) () =
    let eng = Engine.create (Machine.create (program ())) in
    log := [];
    if raising_run then
      Engine.add_ins_instrumenter eng (fun _ ->
          [ (fun () -> raise Analysis_failed) ]);
    Engine.add_fini eng (fun () -> log := "first" :: !log);
    Engine.add_fini eng (fun () ->
        log := "second" :: !log;
        if raising_fini then raise Fini_failed);
    Engine.add_fini eng (fun () -> log := "third" :: !log);
    eng
  in
  let all = [ "first"; "second"; "third" ] in
  Engine.run (with_finis ());
  Alcotest.(check (list string)) "all finis after a normal run" all (List.rev !log);
  Alcotest.check_raises "the run's exception propagates" Analysis_failed
    (fun () -> Engine.run (with_finis ~raising_run:true ()));
  Alcotest.(check (list string)) "finis ran before it left" all (List.rev !log);
  Alcotest.check_raises "a fini's exception replaces the run's" Fini_failed
    (fun () -> Engine.run (with_finis ~raising_run:true ~raising_fini:true ()));
  Alcotest.(check (list string)) "later finis still ran" all (List.rev !log);
  Alcotest.check_raises "a fini can fail a clean run" Fini_failed (fun () ->
      Engine.run (with_finis ~raising_fini:true ()))

let suites =
  [
    ( "dbi.engine",
      [
        Alcotest.test_case "instruction counting" `Quick test_instruction_counting;
        Alcotest.test_case "load/store counting" `Quick test_load_store_counting;
        Alcotest.test_case "effective addresses" `Quick test_effective_addresses;
        Alcotest.test_case "rtn instrumentation" `Quick test_rtn_instrumenter;
        Alcotest.test_case "predicated analysis" `Quick test_predicated_analysis;
        Alcotest.test_case "code cache stats" `Quick test_code_cache_stats;
        Alcotest.test_case "no code cache" `Quick test_no_code_cache;
        Alcotest.test_case "trace chaining stats" `Quick test_chaining_stats;
        Alcotest.test_case "no closure compilation without cache" `Quick
          test_no_closure_compilation_without_cache;
        Alcotest.test_case "transparency" `Quick test_uninstrumented_equivalence;
        Alcotest.test_case "frozen registration" `Quick
          test_instrumenter_registration_frozen;
        Alcotest.test_case "fini functions" `Quick test_fini;
      ] );
  ]
