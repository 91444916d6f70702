(* A fresh [ebp serve] per run, driven over EBPS from one client
   connection. Default flags apart from the socket and cache directory. *)

module P = Ebp_serve.Protocol
module Client = Ebp_serve.Client

type t = { pid : int; client : Client.t; mutable stopped : bool }

let start ~ebp ~dir =
  let socket = Filename.concat dir "s.sock" in
  let log = Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process ebp
      [| ebp; "serve"; "--socket"; socket; "--cache-dir"; Filename.concat dir "cache" |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  match Client.connect ~tenant:"perfbench" ~retries:400 ~socket_path:socket () with
  | Ok client -> { pid; client; stopped = false }
  | Error msg ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith ("cannot reach the daemon: " ^ msg)

let request t req = Client.request t.client req

let stats t =
  match request t P.Stats_query with
  | Ok (P.Stats ndjson) -> (
      match Ebp_obs.Export.of_ndjson ndjson with
      | Ok s -> s
      | Error msg -> failwith ("bad stats snapshot: " ^ msg))
  | _ -> failwith "stats request failed"

(* A [/proc/PID/status] field, in kB. *)
let status_kb pid field =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | exception End_of_file -> failwith (field ^ " missing from /proc status")
    | line ->
        let prefix = field ^ ":" in
        let n = String.length prefix in
        if String.length line > n && String.sub line 0 n = prefix then
          Scanf.sscanf (String.sub line n (String.length line - n)) " %d" Fun.id
        else find ()
  in
  float_of_int (find ())

let rss_mb t = status_kb t.pid "VmRSS" /. 1024.0
let hwm_mb t = status_kb t.pid "VmHWM" /. 1024.0

(* Graceful shutdown; a daemon that does not exit in time is killed.
   Either way the process has ended when this returns. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    ignore (request t P.Shutdown : (P.response, string) result);
    Client.close t.client;
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.01;
          reap ()
      | 0, _ ->
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    reap ()
  end
