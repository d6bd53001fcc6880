(* Span recorder for the traced run.

   Each span records its name, start, end, the span that was open on the
   same thread when it began (its parent), and a request id shared by all
   spans of one served job.  Spans stay in memory until the run ends; then
   they are written out as Chrome-trace JSON, which Perfetto opens, and
   reduced to per-name self times and totals.

   A disabled recorder makes [with_] exactly the wrapped call, so the
   untraced run executes the same code path without recording. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a span opened with nothing else open *)
  req : int;  (** [-1] outside a served job *)
  tid : int;  (** recording thread *)
  start : float;  (** seconds since the recorder was created *)
  stop : float;
}

type t = {
  on : bool;
  t0 : float;
  lock : Mutex.t;
  mutable next : int;
  mutable closed : span list;
  open_ : (int, (int * int) list) Hashtbl.t;
      (** thread id -> stack of open (span id, request id) *)
}

let create ~on =
  {
    on;
    t0 = Unix.gettimeofday ();
    lock = Mutex.create ();
    next = 0;
    closed = [];
    open_ = Hashtbl.create 8;
  }

let with_ t ?req name f =
  if not t.on then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent, req =
      Mutex.protect t.lock (fun () ->
          let id = t.next in
          t.next <- id + 1;
          let stack = Option.value ~default:[] (Hashtbl.find_opt t.open_ tid) in
          let parent, outer_req =
            match stack with (p, r) :: _ -> (p, r) | [] -> (-1, -1)
          in
          let req = Option.value ~default:outer_req req in
          Hashtbl.replace t.open_ tid ((id, req) :: stack);
          (id, parent, req))
    in
    let start = Unix.gettimeofday () -. t.t0 in
    let close () =
      let stop = Unix.gettimeofday () -. t.t0 in
      Mutex.protect t.lock (fun () ->
          (match Hashtbl.find_opt t.open_ tid with
          | Some (_ :: rest) -> Hashtbl.replace t.open_ tid rest
          | _ -> ());
          t.closed <- { id; name; parent; req; tid; start; stop } :: t.closed)
    in
    Fun.protect ~finally:close f
  end

let spans t =
  List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) t.closed

let dur s = s.stop -. s.start

(* Length of the union of [(start, stop)] intervals. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let children_of all =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add tbl s.parent (s.start, s.stop))
    all;
  fun id -> Hashtbl.find_all tbl id

(* Self time per span name: each span's duration minus the part of its
   interval that its children cover, summed over spans of that name. *)
let self_times t =
  let all = spans t in
  let kids = children_of all in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur s -. union_length (kids s.id) in
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. self))
    all;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let total t ~name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. dur s else acc)
    0. t.closed

(* Chrome trace event format: one complete ("X") event per span, times in
   microseconds, the recording thread as [tid]. *)
let write_chrome t path =
  let module J = Tq_obs.Json in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("cat", J.Str "perfbench");
        ("ph", J.Str "X");
        ("pid", J.Int 1);
        ("tid", J.Int s.tid);
        ("ts", J.Float (s.start *. 1e6));
        ("dur", J.Float (dur s *. 1e6));
        ( "args",
          J.Obj
            [ ("id", J.Int s.id); ("parent", J.Int s.parent); ("req", J.Int s.req) ]
        );
      ]
  in
  let doc =
    J.Obj
      [
        ("displayTimeUnit", J.Str "ms");
        ("traceEvents", J.List (List.map event (spans t)));
      ]
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (J.to_string doc))
