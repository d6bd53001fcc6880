module Json = Tq_obs.Json

type t = { fd : Unix.file_descr; timeout_s : float option; attempt : int }

type err = {
  kind : string;
  reason : string;
  retry_after_s : float option;
}

let transport reason = { kind = "transport"; reason; retry_after_s = None }
let timed_out reason = { kind = "timeout"; reason; retry_after_s = None }

let connect ?timeout_s ?(attempt = 1) path =
  (match timeout_s with
  | Some t when t <= 0. -> invalid_arg "Client.connect: timeout_s must be positive"
  | _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd; timeout_s; attempt }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (transport (Printf.sprintf "connect %s: %s" path (Unix.error_message e)))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Retried requests carry their attempt number, so the server's
   [retries_observed] counter sees client-side backoff in action. *)
let stamp t req =
  match req with
  | Json.Obj members when t.attempt > 1 ->
      Json.Obj (members @ [ ("attempt", Json.Int t.attempt) ])
  | j -> j

(* Send one request frame and the raw frames that follow it, then wait for
   the reply. *)
let exchange ?(blobs = []) t req =
  match
    Protocol.write_frame ?timeout_s:t.timeout_s t.fd (stamp t req);
    List.iter (Protocol.write_raw ?timeout_s:t.timeout_s t.fd) blobs;
    Protocol.read_frame ?idle_timeout_s:t.timeout_s
      ?frame_timeout_s:t.timeout_s t.fd
  with
  | None -> Error (transport "server closed the connection")
  | Some resp -> (
      match Protocol.get_bool "ok" resp with
      | Some true -> Ok resp
      | _ ->
          let kind =
            Option.value (Protocol.get_str "error" resp) ~default:"transport"
          in
          let reason =
            Option.value (Protocol.get_str "reason" resp)
              ~default:"malformed error response"
          in
          let retry_after_s = Protocol.get_num "retry_after_s" resp in
          Error { kind; reason; retry_after_s })
  | exception End_of_file -> Error (transport "server closed mid-frame")
  | exception Protocol.Frame_error msg -> Error (transport msg)
  | exception Protocol.Timeout what ->
      Error (timed_out ("no response from server: " ^ what))
  | exception Unix.Unix_error (e, fn, _) ->
      Error (transport (Printf.sprintf "%s: %s" fn (Unix.error_message e)))

let request t req = exchange t req

(* ---------- retry policy ---------- *)

type policy = {
  retries : int;
  base_s : float;
  factor : float;
  max_s : float;
  jitter : float;
}

let default_policy =
  { retries = 0; base_s = 0.1; factor = 2.; max_s = 5.; jitter = 0.25 }

(* busy is explicit backpressure, timeout and transport are plausibly
   transient (server restarting, frame lost to a reaped connection).
   Everything else — bad-request, not-found, bad-trace, shutting-down,
   server-error — will fail identically on retry. *)
let retryable e =
  match e.kind with "busy" | "transport" | "timeout" -> true | _ -> false

let backoff_delay ?(rand = Random.float) policy ~attempt ~retry_after_s =
  let exp =
    Float.min policy.max_s
      (policy.base_s *. (policy.factor ** float_of_int (attempt - 1)))
  in
  (* full jitter on a fraction of the delay: desynchronises clients that
     got refused together without collapsing the backoff floor *)
  let jittered = exp *. (1. -. (policy.jitter *. rand 1.0)) in
  (* the server's hint is a floor, not a cap: it knows when capacity frees *)
  match retry_after_s with
  | Some hint -> Float.max jittered hint
  | None -> jittered

let with_retry ?(policy = default_policy) ?(sleep = Unix.sleepf) ?rand f =
  let rec go attempt =
    match f ~attempt with
    | Ok v -> Ok v
    | Error e when attempt <= policy.retries && retryable e ->
        sleep
          (backoff_delay ?rand policy ~attempt
             ~retry_after_s:e.retry_after_s);
        go (attempt + 1)
    | Error e -> Error e
  in
  go 1

let op name members = Json.Obj (("op", Json.Str name) :: members)

let ping t =
  match request t (op "ping" []) with Ok _ -> Ok () | Error e -> Error e

(* Every blob is size-checked before anything is sent, so an oversized one
   never leaves the server waiting mid-request; the refusal is terminal, as
   a retry would send the same bytes. *)
let upload ?name ?program ~trace t =
  let blobs = trace :: Option.to_list program in
  match List.find_opt (fun b -> String.length b > Protocol.max_frame) blobs with
  | Some b ->
      Error
        {
          kind = Protocol.bad_request;
          reason =
            Printf.sprintf "%d-byte payload exceeds the %d-byte frame cap"
              (String.length b) Protocol.max_frame;
          retry_after_s = None;
        }
  | None -> (
      let members =
        [ ("trace_bytes", Json.Int (String.length trace)) ]
        @ (match program with
          | Some p -> [ ("program_bytes", Json.Int (String.length p)) ]
          | None -> [])
        @ match name with Some n -> [ ("name", Json.Str n) ] | None -> []
      in
      match exchange ~blobs t (op "upload" members) with
      | Error e -> Error e
      | Ok resp -> (
          match Protocol.get_str "id" resp with
          | Some id -> Ok id
          | None -> Error (transport "upload response carries no id")))

let trace_info t id =
  match request t (op "trace-info" [ ("id", Json.Str id) ]) with
  | Error e -> Error e
  | Ok resp -> (
      match Json.member "trace" resp with
      | Some j -> Ok j
      | None -> Error (transport "trace-info response carries no trace"))

let replay ?tools ?slice ?period ?deadline_s ?attach t id =
  let members =
    [ ("id", Json.Str id) ]
    @ (match tools with
      | Some ts -> [ ("tools", Json.List (List.map (fun t -> Json.Str t) ts)) ]
      | None -> [])
    @ (match slice with Some n -> [ ("slice", Json.Int n) ] | None -> [])
    @ (match period with Some n -> [ ("period", Json.Int n) ] | None -> [])
    @ (match deadline_s with
      | Some d -> [ ("deadline_s", Json.Float d) ]
      | None -> [])
    @ match attach with Some a -> [ ("attach", Json.Bool a) ] | None -> []
  in
  match request t (op "replay" members) with
  | Error e -> Error e
  | Ok resp -> (
      match Protocol.get_int "job" resp with
      | Some jid -> Ok jid
      | None -> Error (transport "replay response carries no job id"))

type report = {
  job : int;
  done_ : bool;
  reports : (string * string) list;
  failures : (string * string) list;
  killed : string option;
}

let str_members = function
  | Some (Json.Obj members) ->
      List.filter_map
        (function k, Json.Str v -> Some (k, v) | _ -> None)
        members
  | _ -> []

let report ?(wait = false) t jid =
  match
    request t (op "report" [ ("job", Json.Int jid); ("wait", Json.Bool wait) ])
  with
  | Error e -> Error e
  | Ok resp ->
      Ok
        {
          job = jid;
          done_ =
            Option.value (Protocol.get_bool "done" resp) ~default:false;
          reports = str_members (Json.member "reports" resp);
          failures = str_members (Json.member "failures" resp);
          killed = Protocol.get_str "killed" resp;
        }

let stats t =
  match request t (op "stats" []) with
  | Error e -> Error e
  | Ok resp -> (
      match Json.member "server" resp with
      | Some j -> Ok j
      | None -> Error (transport "stats response carries no server section"))

let shutdown t =
  match request t (op "shutdown" []) with
  | Ok _ -> Ok ()
  | Error e -> Error e
