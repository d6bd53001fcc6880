let schema_version = 1

let required = [ "schema_version"; "tool"; "subcommand"; "argv"; "spans"; "metrics" ]

let make ~tool ~subcommand ?(argv = []) ?(extra = []) spans metrics =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (k, _) ->
      if List.mem k required || Hashtbl.mem seen k then
        invalid_arg (Printf.sprintf "Manifest.make: duplicate section %S" k);
      Hashtbl.add seen k ())
    extra;
  Json.Obj
    ([ ("schema_version", Json.Int schema_version);
       ("tool", Json.Str tool);
       ("subcommand", Json.Str subcommand);
       ("argv", Json.List (List.map (fun a -> Json.Str a) argv));
       ("spans", Span.to_json spans);
       ("metrics", Metrics.to_json metrics) ]
    @ extra)

(* ---------- validation ---------- *)

(* Checks accumulate into a first-error result: every helper either returns
   unit or raises [Bad path reason], turned into [Error] at the top. *)
exception Bad of string

let bad path fmt = Printf.ksprintf (fun s -> raise (Bad (path ^ ": " ^ s))) fmt

let get path obj k =
  match Json.member k obj with
  | Some v -> v
  | None -> bad path "missing member %S" k

let as_obj path = function
  | Json.Obj members -> members
  | _ -> bad path "expected an object"

let as_list path = function
  | Json.List items -> items
  | _ -> bad path "expected a list"

let as_int path = function
  | Json.Int i -> i
  | _ -> bad path "expected an integer"

let as_str path = function
  | Json.Str s -> s
  | _ -> bad path "expected a string"

let as_num path = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> bad path "expected a number"

let check_span i v =
  let path = Printf.sprintf "spans[%d]" i in
  ignore (as_str (path ^ ".name") (get path v "name"));
  ignore (as_num (path ^ ".start_s") (get path v "start_s"));
  ignore (as_num (path ^ ".wall_s") (get path v "wall_s"));
  ignore (as_int (path ^ ".top_heap_words") (get path v "top_heap_words"));
  List.iter
    (fun (k, a) -> ignore (as_int (Printf.sprintf "%s.attrs.%s" path k) a))
    (as_obj (path ^ ".attrs") (get path v "attrs"))

let check_metrics v =
  let path = "metrics" in
  let members = as_obj path v in
  List.iter
    (fun k ->
      if not (List.mem_assoc k members) then bad path "missing member %S" k)
    [ "counters"; "gauges"; "timers" ];
  List.iter
    (fun (name, c) ->
      let path = "metrics.counters." ^ name in
      ignore (as_int (path ^ ".value") (get path c "value"));
      ignore (as_str (path ^ ".unit") (get path c "unit")))
    (as_obj "metrics.counters" (List.assoc "counters" members));
  List.iter
    (fun (name, g) ->
      let path = "metrics.gauges." ^ name in
      (match get path g "value" with
      | Json.Null | Json.Int _ | Json.Float _ -> ()
      | _ -> bad path "gauge value must be a number or null");
      ignore (as_str (path ^ ".unit") (get path g "unit")))
    (as_obj "metrics.gauges" (List.assoc "gauges" members));
  List.iter
    (fun (name, tm) ->
      let path = "metrics.timers." ^ name in
      ignore (as_int (path ^ ".count") (get path tm "count"));
      List.iter
        (fun k -> ignore (as_num (path ^ "." ^ k) (get path tm k)))
        [ "total_s"; "min_s"; "max_s" ])
    (as_obj "metrics.timers" (List.assoc "timers" members))

(* Known sections: members are optional, but a present member must have the
   documented type — the rule that lets sections grow compatibly. *)
let check_int_section name v =
  List.iter
    (fun (k, x) -> ignore (as_int (Printf.sprintf "%s.%s" name k) x))
    (as_obj name v)

let check_trace v =
  List.iter
    (fun (k, x) ->
      let path = "trace." ^ k in
      match k with
      | "version" | "events" | "chunks" | "bytes" | "last_icount"
      | "stored_events" | "plain_chunks" | "repeat_chunks" | "body_chunks" ->
          ignore (as_int path x)
      | "fingerprint" -> ignore (as_str path x)
      | "crc_verify_s" | "event_ratio" -> ignore (as_num path x)
      | "salvage" ->
          let m = as_obj path x in
          List.iter
            (fun (k2, y) ->
              let path = path ^ "." ^ k2 in
              match k2 with
              | "reason" -> ignore (as_str path y)
              | _ -> ignore (as_int path y))
            m
      | _ -> ())
    (as_obj "trace" v)

let check_replay v =
  List.iter
    (fun (k, x) ->
      let path = "replay." ^ k in
      match k with
      | "domains" | "chunks" | "events" -> ignore (as_int path x)
      | "groups" ->
          List.iteri
            (fun i gv ->
              let path = Printf.sprintf "replay.groups[%d]" i in
              List.iteri
                (fun j jv ->
                  ignore (as_str (Printf.sprintf "%s[%d]" path j) jv))
                (as_list path gv))
            (as_list path x)
      | "stage_s" ->
          List.iter
            (fun (k2, y) -> ignore (as_num (path ^ "." ^ k2) y))
            (as_obj path x)
      | "timings" ->
          List.iteri
            (fun i tv ->
              let path = Printf.sprintf "replay.timings[%d]" i in
              ignore (as_int (path ^ ".domain") (get path tv "domain"));
              ignore (as_num (path ^ ".wall_s") (get path tv "wall_s"));
              List.iteri
                (fun j jv ->
                  ignore (as_str (Printf.sprintf "%s.jobs[%d]" path j) jv))
                (as_list (path ^ ".jobs") (get path tv "jobs")))
            (as_list path x)
      | _ -> ())
    (as_obj "replay" v)

(* The serve daemon's section: top-level counters plus nested all-numeric
   groups (requests, rate, queue, cache, latency). *)
let check_server v =
  List.iter
    (fun (k, x) ->
      let path = "server." ^ k in
      match k with
      | "uptime_s" -> ignore (as_num path x)
      | "connections" | "active_connections" | "busy_rejections"
      | "reaped_connections" | "refused_connections" | "retries_observed" ->
          ignore (as_int path x)
      | "requests" | "rate" | "queue" | "cache" | "latency" ->
          List.iter
            (fun (k2, y) -> ignore (as_num (path ^ "." ^ k2) y))
            (as_obj path x)
      | _ -> ())
    (as_obj "server" v)

(* The static checker's section: flat counters, two all-integer nested
   groups (loops, accesses), and a per-kernel list from the dataflow
   bandwidth model. *)
let check_check v =
  List.iter
    (fun (k, x) ->
      let path = "check." ^ k in
      match k with
      | "routines" | "instructions" | "errors" | "warnings" | "infos"
      | "dataflow" ->
          ignore (as_int path x)
      | "loops" | "accesses" ->
          List.iter
            (fun (k2, y) -> ignore (as_int (path ^ "." ^ k2) y))
            (as_obj path x)
      | "kernels" ->
          List.iteri
            (fun i kv ->
              let path = Printf.sprintf "check.kernels[%d]" i in
              ignore (as_str (path ^ ".name") (get path kv "name"));
              ignore (as_num (path ^ ".bytes") (get path kv "bytes"));
              List.iter
                (fun (k2, y) ->
                  if k2 <> "name" then ignore (as_num (path ^ "." ^ k2) y))
                (as_obj path kv))
            (as_list path x)
      | _ -> ())
    (as_obj "check" v)

let validate doc =
  match
    let members = as_obj "manifest" doc in
    let v = as_int "schema_version" (get "manifest" doc "schema_version") in
    if v <> schema_version then
      bad "schema_version" "unsupported version %d (expected %d)" v schema_version;
    ignore (as_str "tool" (get "manifest" doc "tool"));
    ignore (as_str "subcommand" (get "manifest" doc "subcommand"));
    List.iteri
      (fun i a -> ignore (as_str (Printf.sprintf "argv[%d]" i) a))
      (as_list "argv" (get "manifest" doc "argv"));
    List.iteri check_span (as_list "spans" (get "manifest" doc "spans"));
    check_metrics (get "manifest" doc "metrics");
    List.iter
      (fun (k, v) ->
        match k with
        | "engine" | "memory" -> check_int_section k v
        | "trace" -> check_trace v
        | "replay" -> check_replay v
        | "server" -> check_server v
        | "check" -> check_check v
        | _ -> ())
      members
  with
  | () -> Ok ()
  | exception Bad msg -> Error msg

let write path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string doc))

let load path =
  let ic = open_in_bin path in
  let raw =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Json.of_string raw
