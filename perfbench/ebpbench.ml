(* The ebp benchmark: one workload against a fresh [ebp serve], driven
   over EBPS from one client in a closed loop, every reply checked.

     ebpbench.exe --workload cold|warm|live --seed N --seconds S --trace 0|1
                  [--ebp PATH]

   With --trace 0 the last line of stdout is a JSON object with the
   end-to-end metrics. With --trace 1 an in-process traced replica
   (replica.ml) answers every request right after the daemon does, and
   the JSON carries the per-layer metrics. README.md has the design. *)

module P = Ebp_serve.Protocol
module Metrics = Ebp_obs.Metrics
module Json = Ebp_obs.Json

(* --- small helpers --- *)

let now = Unix.gettimeofday

(* Linear interpolation between closest ranks. *)
let percentile p = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let pos = p *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median = percentile 0.5

let sum = List.fold_left ( +. ) 0.0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Bytes in a cache directory's files; [clear] also deletes them. *)
let dir_bytes ?(clear = false) dir =
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun acc f ->
        let path = Filename.concat dir f in
        let size = (Unix.stat path).Unix.st_size in
        if clear then Sys.remove path;
        acc + size)
      0 (Sys.readdir dir)

(* --- the closed-loop runner --- *)

type sample = { kind : string; req : P.request; latency_s : float; ok : bool }

type tally = {
  mutable samples : sample list;  (* newest first *)
  mutable digest : string;  (* running MD5 over the replies *)
  mutable sessions : int;  (* sessions in Sessions replies *)
  mutable live_polls : int;
  mutable decoded : int;  (* events in the prefixes the live polls read *)
  mutable recorded : int;  (* events in the completed live recordings *)
  mutable reply_bytes : int list;  (* reply frame sizes *)
  mutable failures : string list;
  shadow : (P.request -> P.response) option;
      (* the traced replica, run on each request after the daemon *)
}

let tally ?shadow () =
  {
    samples = [];
    digest = "";
    sessions = 0;
    live_polls = 0;
    decoded = 0;
    recorded = 0;
    reply_bytes = [];
    failures = [];
    shadow;
  }

let fail t msg = t.failures <- msg :: t.failures

let note_reply t reply =
  t.reply_bytes <- String.length (P.encode_response reply) :: t.reply_bytes;
  match reply with
  | P.Report s -> t.digest <- Digest.string (t.digest ^ s)
  | P.Live_report { report; high_water; complete } ->
      t.digest <-
        Digest.string
          (Printf.sprintf "%s%s%d%b" t.digest report high_water complete)
  | _ -> ()

(* "N sessions", the last line of a sessions report. *)
let sessions_in report =
  match List.rev (String.split_on_char '\n' (String.trim report)) with
  | last :: _ -> ( try Scanf.sscanf last "%d sessions" Fun.id with _ -> 0)
  | [] -> 0

let describe = function
  | Ok r -> Format.asprintf "%a" P.pp_frame (P.Response r)
  | Error msg -> "transport error: " ^ msg

(* Send one request, time it from send to decoded reply, then let the
   shadow answer it too, outside the timed interval. Returns the reply
   and a function that records the sample once it has been checked. *)
let timed t ~send ~kind req =
  let t0 = now () in
  let reply = send req in
  let latency_s = now () -. t0 in
  (match reply with Ok r -> note_reply t r | Error _ -> ());
  Option.iter
    (fun shadow ->
      let mine = shadow req in
      if reply <> Ok mine then fail t (kind ^ ": the replica's reply differs from the daemon's"))
    t.shadow;
  (reply, fun ok -> t.samples <- { kind; req; latency_s; ok } :: t.samples)

let run_fixed t ~send (f : Plan.fixed) =
  let reply, record = timed t ~send ~kind:f.Plan.kind f.Plan.req in
  let ok =
    match reply with
    | Ok (P.Report s) when s = f.Plan.expect ->
        (match f.Plan.req with
        | P.Sessions_query _ -> t.sessions <- t.sessions + sessions_in s
        | _ -> ());
        true
    | _ ->
        fail t (Printf.sprintf "%s: unexpected reply %s" f.Plan.kind (describe reply));
        false
  in
  record ok

(* Poll until complete: the advance question with the previous
   high-water mark, then (from the second poll on) the profile question
   on the same prefix. High-water marks must rise strictly, and the
   complete replies must equal the batch replies. *)
let run_live t ~send (l : Plan.live) =
  let ask ~kind ~expr ~min_events =
    t.live_polls <- t.live_polls + 1;
    let reply, record = timed t ~send ~kind (Plan.live_req l ~expr ~min_events) in
    match reply with
    | Ok (P.Live_report { report; high_water; complete }) ->
        t.decoded <- t.decoded + high_water;
        Some ((report, high_water, complete), record)
    | _ ->
        fail t (Printf.sprintf "%s: unexpected reply %s" kind (describe reply));
        record false;
        None
  in
  let check ~kind ~final (report, _, complete) record cond =
    let ok = cond && ((not complete) || report = final) in
    if not ok then fail t (Printf.sprintf "%s of %s: wrong live reply" kind l.Plan.l_name);
    record ok
  in
  let rec poll k prev =
    if k > 1000 then fail t (l.Plan.l_name ^ ": never completed")
    else
      let kind q = Printf.sprintf "%s.p%d" q k in
      match ask ~kind:(kind "advance") ~expr:l.Plan.advance_expr ~min_events:prev with
      | None -> ()
      | Some (((_, hw, complete) as a), record) ->
          check ~kind:(kind "advance") ~final:l.Plan.advance_final a record (hw > prev);
          let continue =
            k = 1
            ||
            match
              ask ~kind:(kind "profile") ~expr:l.Plan.profile_expr ~min_events:prev
            with
            | None -> false
            | Some (((_, hw2, complete2) as b), record2) ->
                check ~kind:(kind "profile") ~final:l.Plan.profile_final b record2
                  (hw2 = hw && complete2 = complete);
                true
          in
          if complete then t.recorded <- t.recorded + hw
          else if continue then poll (k + 1) hw
  in
  poll 1 0

let run_steps t ~send ~after steps =
  List.iter
    (fun step ->
      (match step with
      | Plan.Fixed f -> run_fixed t ~send f
      | Plan.Live l -> run_live t ~send l);
      after ())
    steps

(* --- run shape --- *)

(* Rounds per run: the nominal round length on the reference machine
   scales the run to --seconds, and a floor keeps at least 100 timed
   requests, so p90 has at least ten samples beyond it. *)
let rounds_for workload seconds =
  let round_s, floor =
    match workload with
    | "cold" -> (1.1, 20)  (* 5 requests a round *)
    | "warm" -> (4.5, 7)  (* 15 requests a round *)
    | _ -> (2.2, 7)  (* live: 15 requests a round *)
  in
  max floor (int_of_float (Float.round (seconds /. round_s)))

(* Set-up is repeated, and its median reported, where it is short enough
   for its own noise to matter. *)
let setups_for = function "warm" -> 1 | _ -> 9

(* The layer the ledger self-test slows: one that every request calls. *)
let selftest_layer = function
  | "cold" -> "lang.compile"
  | "warm" -> "serve.store"
  | _ -> "query.parse"

let selftest_delay_s = 0.1
let probe_repeats = 11

(* The residual (untraced daemon latency minus the traced layer total)
   must stay within this share of the median latency. *)
let residual_bound = 0.15

(* --- the traced replica, run as the daemon's shadow --- *)

(* One request through the replica, under a ledger root span. *)
let replica_send replica ~id req = Ledger.request id (fun () -> Replica.send replica req)

type shadow = {
  replica : Replica.t;
  mutable next_id : int;  (* ledger request ids, in send order *)
  mutable first_timed : int;  (* the first timed request's id *)
}

(* --- the daemon phase --- *)

type daemon_run = {
  setup_s : float list;
  timed : tally;
  timed_s : float;  (* sum of the timed intervals *)
  peak_rss_mb : float;
  retained_mb : float;  (* RSS growth per finished live session *)
  cache_bytes : int;  (* bytes the daemon wrote to its cache while measured *)
  stats0 : Metrics.snapshot;  (* at the first timed request *)
  stats1 : Metrics.snapshot;  (* after the last *)
  setup_failures : string list;
}

(* With a shadow, every request is answered by the replica too, right
   after the daemon, so both see the same host conditions; the replica
   keeps its own cache directory, emptied like the daemon's on cold. *)
let daemon_phase ~workload ~ebp ~dir ?shadow (plan : Plan.t) =
  let cache = Filename.concat dir "cache" in
  let cold = workload = "cold" in
  let cache_bytes = ref 0 in
  let settle () = if cold then cache_bytes := !cache_bytes + dir_bytes ~clear:true cache in
  let shadow_send =
    Option.map
      (fun s req ->
        let id = s.next_id in
        s.next_id <- id + 1;
        let reply = replica_send s.replica ~id req in
        if cold then ignore (dir_bytes ~clear:true s.replica.Replica.dir : int);
        reply)
      shadow
  in
  let setup_tally = tally ?shadow:shadow_send () in
  let one_setup () =
    rm_rf cache;
    Option.iter
      (fun s ->
        Replica.forget s.replica;
        rm_rf s.replica.Replica.dir)
      shadow;
    let t0 = now () in
    let d = Daemon.start ~ebp ~dir in
    (try
       let send = Daemon.request d in
       run_steps setup_tally ~send ~after:settle plan.Plan.setup
     with e ->
       Daemon.stop d;
       raise e);
    (d, now () -. t0)
  in
  let setups = setups_for workload in
  let rec repeat i acc =
    let d, s = one_setup () in
    if i = setups then (d, List.rev (s :: acc))
    else begin
      Daemon.stop d;
      repeat (i + 1) (s :: acc)
    end
  in
  let d, setup_s = repeat 1 [] in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  cache_bytes := if cold then 0 else dir_bytes cache;
  Option.iter (fun s -> s.first_timed <- s.next_id) shadow;
  let stats0 = Daemon.stats d in
  let timed = tally ?shadow:shadow_send () in
  let rss0 = Daemon.rss_mb d in
  run_steps timed ~send:(Daemon.request d) ~after:settle (List.concat plan.Plan.rounds);
  let live_sessions =
    List.length (List.filter (function Plan.Live _ -> true | _ -> false) (List.concat plan.Plan.rounds))
  in
  let retained_mb =
    if live_sessions = 0 then 0.0
    else (Daemon.rss_mb d -. rss0) /. float_of_int live_sessions
  in
  let stats1 = Daemon.stats d in
  {
    setup_s;
    timed;
    timed_s = sum (List.map (fun s -> s.latency_s) timed.samples);
    peak_rss_mb = Daemon.hwm_mb d;
    retained_mb;
    cache_bytes = !cache_bytes;
    stats0;
    stats1;
    setup_failures = setup_tally.failures;
  }

(* --- the work fingerprint --- *)

let kind_counts (t : tally) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.replace tbl s.kind (1 + Option.value ~default:0 (Hashtbl.find_opt tbl s.kind)))
    t.samples;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])

let fingerprint (plan : Plan.t) (r : daemon_run) =
  let kinds = kind_counts r.timed in
  String.concat " "
    [
      Printf.sprintf "requests=%d" (List.length r.timed.samples);
      "per_kind="
      ^ String.concat "," (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) kinds);
      Printf.sprintf "instructions=%d" plan.Plan.instructions;
      Printf.sprintf "events=%d" plan.Plan.events;
      Printf.sprintf "sessions=%d" r.timed.sessions;
      Printf.sprintf "replies_md5=%s" (Digest.to_hex r.timed.digest);
      Printf.sprintf "cache_bytes=%d" r.cache_bytes;
      Printf.sprintf "live_polls=%d" r.timed.live_polls;
      Printf.sprintf "decoded=%d" r.timed.decoded;
    ]

(* A repeat at the same seed, with the same code and run length, must
   do the same work. Fingerprints persist under the run root. *)
let check_fingerprint ~root ~workload ~seed ~rounds ~ebp fp =
  let code =
    Digest.to_hex
      (Digest.string (Digest.file ebp ^ Digest.file Sys.executable_name))
  in
  let dir = Filename.concat root "fingerprints" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let file =
    Filename.concat dir (Printf.sprintf "%s-%d-%d-%s" workload seed rounds code)
  in
  if Sys.file_exists file then begin
    let previous = In_channel.with_open_bin file In_channel.input_all in
    if previous = fp then Ok "matches the previous run at this seed"
    else Error ("differs from the previous run at this seed: " ^ previous)
  end
  else begin
    Out_channel.with_open_bin file (fun oc -> output_string oc fp);
    Ok "recorded (first run at this seed)"
  end

(* --- the daemon's own metrics, over the timed phase --- *)

let counter (s : Metrics.snapshot) name =
  match List.find_opt (fun (n, _, _) -> n = name) s.Metrics.counters with
  | Some (_, v, _) -> v
  | None -> 0

let hist (s : Metrics.snapshot) name =
  match List.assoc_opt name s.Metrics.hists with
  | Some h -> (h.Metrics.count, h.Metrics.sum)
  | None -> (0, 0)

let counter_delta r name = counter r.stats1 name - counter r.stats0 name

(* Calls and mean ms of a nanosecond histogram. *)
let hist_delta_ms r name =
  let c0, s0 = hist r.stats0 name and c1, s1 = hist r.stats1 name in
  if c1 = c0 then (0, 0.0)
  else (c1 - c0, float_of_int (s1 - s0) /. float_of_int (c1 - c0) /. 1e6)

(* --- per-layer metrics --- *)

type check = { name : string; pass : bool; detail : string }

let cells ledger ids name f =
  List.filter_map
    (fun id ->
      match Hashtbl.find_opt ledger id with
      | Some layers -> Option.map f (Hashtbl.find_opt layers name)
      | None -> None)
    ids

let layer_names ledger =
  let names = Hashtbl.create 32 in
  Hashtbl.iter (fun _ layers -> Hashtbl.iter (fun n _ -> Hashtbl.replace names n ()) layers) ledger;
  List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) names [])

let self_ms (c : Ledger.cell) = c.Ledger.self_s *. 1000.0
let self_mb (c : Ledger.cell) = c.Ledger.self_alloc /. 1048576.0

let metric name value unit =
  ( name,
    Json.Obj
      [
        ("value", Json.Float (if Float.is_finite value then value else 0.0));
        ("unit", Json.Str unit);
      ] )

(* The busy-wait must land in the slowed layer and in no other: compare
   each layer's fastest self time with and without it. *)
let selftest ledger ~plain ~slowed ~layer =
  let delay_ms = selftest_delay_s *. 1000.0 in
  let names =
    List.sort_uniq compare
      (List.concat_map
         (fun id ->
           match Hashtbl.find_opt ledger id with
           | Some layers -> Hashtbl.fold (fun n _ acc -> n :: acc) layers []
           | None -> [])
         (plain @ slowed))
  in
  let moved =
    List.filter_map
      (fun name ->
        let fastest ids = List.fold_left Float.min infinity (cells ledger ids name self_ms) in
        let d = fastest slowed -. fastest plain in
        let want = if name = layer then delay_ms else 0.0 in
        if Float.abs (d -. want) > delay_ms /. 4.0 then
          Some (Printf.sprintf "%s moved %+.1f ms (expected %+.0f)" name d want)
        else None)
      names
  in
  {
    name = "ledger self-test";
    pass = moved = [] && cells ledger slowed layer self_ms <> [];
    detail =
      (if moved = [] then
         Printf.sprintf "a %.0f ms busy-wait in %s is charged to %s alone"
           delay_ms layer layer
       else String.concat "; " moved);
  }

(* Overhead and self-test: the timed request the daemon answered fastest,
   again from a fresh resident state, untraced, traced, and traced with
   a busy-wait in one layer, interleaved. Each mode's fastest run
   filters collector noise. Returns the overhead in percent and the
   self-test's verdict. *)
let probe ~workload (r : daemon_run) (s : shadow) =
  let req =
    (List.fold_left
       (fun best x -> if x.latency_s < best.latency_s then x else best)
       (List.hd r.timed.samples) r.timed.samples)
      .req
  in
  let layer = selftest_layer workload in
  let run ~traced ~slowed ~id =
    Replica.forget s.replica;
    if workload = "cold" then ignore (dir_bytes ~clear:true s.replica.Replica.dir : int);
    Gc.compact ();
    Ledger.enabled := traced;
    Ledger.delay := if slowed then Some (layer, selftest_delay_s) else None;
    let t0 = now () in
    let reply = replica_send s.replica ~id req in
    let dt = now () -. t0 in
    Ledger.enabled := false;
    Ledger.delay := None;
    (reply, dt)
  in
  let modes = [ `Plain; `Traced; `Slowed ] in
  let runs =
    (* the order of the three modes rotates from one repeat to the next *)
    List.concat_map
      (fun i ->
        List.map
          (fun k ->
            let mode = List.nth modes ((i + k) mod 3) in
            ( mode,
              match mode with
              | `Plain -> run ~traced:false ~slowed:false ~id:(-1)
              | `Traced -> run ~traced:true ~slowed:false ~id:(1_000_000 + i)
              | `Slowed -> run ~traced:true ~slowed:true ~id:(2_000_000 + i) ))
          [ 0; 1; 2 ])
      (List.init probe_repeats Fun.id)
  in
  let fastest mode =
    List.fold_left
      (fun acc (m, (_, dt)) -> if m = mode then Float.min acc dt else acc)
      infinity runs
  in
  let overhead = (fastest `Traced -. fastest `Plain) /. fastest `Plain *. 100.0 in
  let ids base = List.init probe_repeats (fun i -> base + i) in
  let test =
    selftest (Ledger.ledger ()) ~layer ~plain:(ids 1_000_000) ~slowed:(ids 2_000_000)
  in
  let replies = List.sort_uniq compare (List.map (fun (_, (reply, _)) -> reply) runs) in
  ( overhead,
    if List.length replies = 1 then test
    else { test with pass = false; detail = "the repeated request's replies differ" } )

(* Layers a workload's own requests never call are priced on a coverage
   pass through the replica alone: one small generated program down the
   cold path, the disk path, a query and a live poll. Returns its ids. *)
let coverage (s : shadow) =
  let source, seed = Plan.coverage_program in
  let name = "coverage" and expr = "count group by pc top 3" in
  let first = 3_000_000 in
  let requests =
    [
      (true, Plan.sessions_req ~name ~source ~seed);
      (true, Plan.sessions_req ~name ~source ~seed);
      (false, Plan.query_req ~name ~source ~seed expr);
      ( false,
        P.Live_query { name; source; seed; expr; format = "table"; min_events = 0 } );
    ]
  in
  rm_rf s.replica.Replica.dir;
  Ledger.enabled := true;
  List.iteri
    (fun i (fresh, req) ->
      if fresh then Replica.forget s.replica;
      ignore (replica_send s.replica ~id:(first + i) req : P.response))
    requests;
  Ledger.enabled := false;
  List.init (List.length requests) (fun i -> first + i)

type traced = {
  layers : (string * string * float list * float list) list;
      (* every layer: where its numbers come from, and the self ms and
         self MB of each request there that calls it *)
  per_layer : (string * Json.t) list;
  checks : check list;
}

let has ledger name id =
  match Hashtbl.find_opt ledger id with
  | Some layers -> Hashtbl.mem layers name
  | None -> false

(* A layer's numbers come from the timed requests that call it; else
   from set-up's, when only set-up does (warm's recording and stores);
   else from the coverage pass. *)
let traced_metrics ~workload (plan : Plan.t) (r : daemon_run) (s : shadow) =
  let overhead, test = probe ~workload r s in
  let coverage_ids = coverage s in
  let ledger = Ledger.ledger () in
  let samples = List.rev r.timed.samples in
  let timed_ids = List.init (List.length samples) (fun i -> s.first_timed + i) in
  let setup_ids = List.init s.first_timed Fun.id in
  let source name =
    List.find
      (fun (_, ids) -> List.exists (has ledger name) ids)
      [ ("timed", timed_ids); ("set-up", setup_ids); ("coverage", coverage_ids) ]
  in
  let ids_for name =
    match source name with
    | _, ids -> List.filter (has ledger name) ids
    | exception Not_found -> []
  in
  let per name f = cells ledger (ids_for name) name f in
  let ms name = median (per name self_ms) in
  let alloc_mb name = median (per name self_mb) in
  let layers =
    List.map
      (fun n -> (n, fst (source n), per n self_ms, per n self_mb))
      (layer_names ledger)
  in
  let totals =
    List.map
      (fun id ->
        match Hashtbl.find_opt ledger id with
        | Some l -> Hashtbl.fold (fun _ cell acc -> acc +. self_ms cell) l 0.0
        | None -> 0.0)
      timed_ids
  in
  let residual =
    median (List.map2 (fun s total -> (s.latency_s *. 1000.0) -. total) samples totals)
  in
  let latency_p50 = median (List.map (fun s -> s.latency_s *. 1000.0) samples) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let record_ids = ids_for "machine.record" in
  let record_s = sum (cells ledger record_ids "machine.record" (fun c -> c.Ledger.self_s)) in
  let tiers = [ "warm"; "disk"; "cold" ] in
  let daemon_tier t =
    counter_delta r
      ("serve.store." ^ match t with "cold" -> "cold_records" | t -> t ^ "_hits")
  in
  let daemon_tiers = List.map daemon_tier tiers in
  let replica_tiers = List.map (fun t -> Ledger.counted timed_ids ("tier." ^ t)) tiers in
  let fetches = List.fold_left ( + ) 0 daemon_tiers in
  let _, queue_ms = hist_delta_ms r "serve.queue_delay_ns" in
  let _, execute_ms = hist_delta_ms r "span.serve.execute" in
  let per_layer =
    [
      metric "lang.compile_ms" (ms "lang.compile") "ms";
      metric "machine.record_ms" (ms "machine.record") "ms";
      metric "machine.minstr_per_s"
        (if record_s = 0.0 then 0.0
         else float_of_int (Ledger.counted record_ids "instructions") /. record_s /. 1e6)
        "Minstr/s";
      metric "write_index.build_ms" (ms "write_index.build") "ms";
      metric "trace_cache.store_ms" (ms "trace_cache.store") "ms";
      metric "trace_cache.index_store_ms" (ms "trace_cache.index_store") "ms";
      metric "trace_cache.bytes_per_event" (ratio r.cache_bytes plan.Plan.stored_events) "B/event";
      metric "trace_cache.lookup_ms" (ms "trace_cache.lookup") "ms";
      metric "trace_cache.index_load_ms" (ms "trace_cache.index_load") "ms";
      metric "sessions.discover_ms" (ms "sessions.discover") "ms";
      metric "sessions.replay_ms" (ms "sessions.replay") "ms";
      metric "sessions.per_request"
        (median
           (List.map
              (fun id -> float_of_int (Ledger.counted [ id ] "sessions"))
              (ids_for "sessions.discover")))
        "count";
      metric "planner.scan_share"
        (ratio (Ledger.counted timed_ids "planner.scan")
           (Ledger.counted timed_ids "planner.decisions"))
        "share";
      metric "query.parse_ms" (ms "query.parse") "ms";
      metric "query.run_ms" (ms "query.run") "ms";
      metric "query.render_ms" (ms "query.render") "ms";
      metric "stream.record_ms" (ms "stream.record") "ms";
      metric "stream.prefix_decode_ms" (ms "stream.prefix_decode") "ms";
      metric "write_index.snapshot_ms" (ms "write_index.snapshot") "ms";
      metric "stream.decoded_per_recorded" (ratio r.timed.decoded r.timed.recorded) "ratio";
      metric "live.retained_mb" r.retained_mb "MB";
      metric "serve.tier_share.warm" (ratio (daemon_tier "warm") fetches) "share";
      metric "serve.tier_share.disk" (ratio (daemon_tier "disk") fetches) "share";
      metric "serve.tier_share.cold" (ratio (daemon_tier "cold") fetches) "share";
      metric "serve.queue_wait_ms" queue_ms "ms";
      metric "serve.render_ms" (ms "serve.render") "ms";
      metric "serve.wire_ms" (ms "serve.wire") "ms";
      metric "serve.reply_bytes" (median (List.map float_of_int r.timed.reply_bytes)) "B";
      metric "serve.execute_ms" execute_ms "ms";
      metric "machine.record_alloc_mb" (alloc_mb "machine.record") "MB";
      metric "trace_cache.store_alloc_mb" (alloc_mb "trace_cache.store") "MB";
      metric "write_index.build_alloc_mb" (alloc_mb "write_index.build") "MB";
      metric "trace_cache.index_load_alloc_mb" (alloc_mb "trace_cache.index_load") "MB";
      metric "sessions.replay_alloc_mb" (alloc_mb "sessions.replay") "MB";
      metric "stream.prefix_decode_alloc_mb" (alloc_mb "stream.prefix_decode") "MB";
      metric "serve.residual_ms" residual "ms";
      metric "obs.trace_overhead_pct" overhead "%";
    ]
  in
  let checks =
    [
      {
        name = "replica tiers";
        pass = replica_tiers = daemon_tiers;
        detail =
          Printf.sprintf "warm/disk/cold fetches: replica %s, daemon %s"
            (String.concat "/" (List.map string_of_int replica_tiers))
            (String.concat "/" (List.map string_of_int daemon_tiers));
      };
      {
        name = "residual";
        pass = Float.abs residual <= residual_bound *. latency_p50;
        detail =
          Printf.sprintf "median %.2f ms of a %.2f ms median latency (bound %.0f%%)"
            residual latency_p50 (residual_bound *. 100.0);
      };
      test;
    ]
  in
  { layers; per_layer; checks }

(* --- main --- *)

let print_end_to_end ~workload ~rounds (r : daemon_run) =
  let samples = r.timed.samples in
  let ok = List.filter (fun s -> s.ok) samples in
  let lat = List.map (fun s -> s.latency_s *. 1000.0) ok in
  let attempted = List.length samples and failed = List.length samples - List.length ok in
  let n = List.length ok in
  Printf.printf "perfbench %s: %d rounds, %d timed requests of %d kinds, one client, closed loop\n"
    workload rounds attempted (List.length (kind_counts r.timed));
  let metrics =
    [
      ( "setup_s", median r.setup_s, "s",
        Printf.sprintf "median of %d set-ups" (List.length r.setup_s) );
      ("latency_ms_p50", percentile 0.5 lat, "ms", Printf.sprintf "n=%d" n);
      ("latency_ms_p90", percentile 0.9 lat, "ms", Printf.sprintf "n=%d" n);
      ( "throughput_per_s",
        (if r.timed_s = 0.0 then 0.0 else float_of_int n /. r.timed_s),
        "1/s",
        Printf.sprintf "n=%d over %.2f s" n r.timed_s );
      ("peak_rss_mb", r.peak_rss_mb, "MB", "n=1 (daemon VmHWM)");
      ( "error_rate",
        (if attempted = 0 then 0.0 else float_of_int failed /. float_of_int attempted),
        "share",
        Printf.sprintf "%d of %d failed" failed attempted );
    ]
  in
  List.iter
    (fun (name, v, unit, samples) ->
      Printf.printf "  %-18s %12.4f %-5s %s\n" name v unit samples)
    metrics;
  Printf.printf "latency by kind (median ms):";
  List.iter
    (fun (kind, _) ->
      let l = List.filter_map (fun s -> if s.kind = kind then Some (s.latency_s *. 1000.0) else None) ok in
      Printf.printf " %s=%.1f" kind (median l))
    (kind_counts r.timed);
  print_newline ();
  (attempted, failed, metrics)

let print_traced (r : daemon_run) (tr : traced) =
  Printf.printf "per-layer ledger (traced replica; median per request that calls the layer):\n";
  Printf.printf "  %-26s %-8s %6s %12s %12s\n" "layer" "from" "calls" "self ms" "alloc MB";
  List.iter
    (fun (name, from, ms, mb) ->
      Printf.printf "  %-26s %-8s %6d %12.3f %12.3f\n" name from (List.length ms) (median ms)
        (median mb))
    tr.layers;
  Printf.printf "daemon spans over the timed phase (Stats frame; mean per call):\n";
  List.iter
    (fun (name, _) ->
      if String.starts_with ~prefix:"span." name then begin
        let calls, ms = hist_delta_ms r name in
        if calls > 0 then Printf.printf "  %-26s %6d %12.3f\n" name calls ms
      end)
    r.stats1.Metrics.hists;
  Printf.printf "per-layer metrics:\n";
  List.iter
    (fun (name, j) ->
      match (Json.member "value" j, Json.member "unit" j) with
      | Some (Json.Float v), Some (Json.Str unit) ->
          Printf.printf "  %-32s %14.4f %s\n" name v unit
      | _ -> ())
    tr.per_layer

let print_check c =
  Printf.printf "check %-18s %s: %s\n" c.name (if c.pass then "PASS" else "FAIL") c.detail

let main ~workload ~seed ~seconds ~trace ~ebp =
  let rounds = rounds_for workload seconds in
  let root = ".perfbench-run" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t0 = now () in
  let plan = Plan.make ~workload ~seed ~rounds in
  Printf.eprintf "perfbench: expected replies through the batch path in %.1f s\n%!" (now () -. t0);
  let shadow =
    if not trace then None
    else begin
      (* Metrics on, as the daemon has them. *)
      Metrics.set_enabled true;
      Ledger.enabled := true;
      Some
        {
          replica = Replica.create ~dir:(Filename.concat dir "replica");
          next_id = 0;
          first_timed = 0;
        }
    end
  in
  Fun.protect ~finally:(fun () -> Option.iter (fun s -> Replica.close s.replica) shadow)
  @@ fun () ->
  Gc.compact ();
  let t0 = now () in
  let r = daemon_phase ~workload ~ebp ~dir ?shadow plan in
  Ledger.enabled := false;
  Printf.eprintf "perfbench: daemon phase in %.1f s\n%!" (now () -. t0);
  let attempted, failed, e2e = print_end_to_end ~workload ~rounds r in
  let fp = fingerprint plan r in
  Printf.printf "fingerprint: %s\n" fp;
  let fp_check =
    match check_fingerprint ~root ~workload ~seed ~rounds ~ebp fp with
    | Ok detail -> { name = "fingerprint"; pass = true; detail }
    | Error detail -> { name = "fingerprint"; pass = false; detail }
  in
  let traced = Option.map (traced_metrics ~workload plan r) shadow in
  Option.iter (print_traced r) traced;
  let checks =
    fp_check
    :: {
         name = "replies";
         pass = r.setup_failures = [] && r.timed.failures = [];
         detail =
           (match List.rev (r.setup_failures @ r.timed.failures) with
           | [] ->
               if trace then "all match the batch path, and the replica's match the daemon's"
               else "all match the batch path"
           | f :: rest -> Printf.sprintf "%s (and %d more)" f (List.length rest));
       }
    :: (match traced with Some tr -> tr.checks | None -> [])
  in
  List.iter print_check checks;
  let metrics =
    match traced with
    | Some tr -> tr.per_layer
    | None ->
        List.filter_map
          (fun (name, v, unit, _) -> if name = "error_rate" then None else Some (metric name v unit))
          e2e
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (List.for_all (fun c -> c.pass) checks));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let ebp = ref "_build/default/bin/ebp.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "cold|warm|live");
      ("--seed", Arg.Set_int seed, "N  draws the programs, key order and query arguments");
      ("--seconds", Arg.Set_float seconds, "S  nominal length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or the traced per-layer run");
      ("--ebp", Arg.Set_string ebp, "PATH  the ebp executable (default _build/default/bin/ebp.exe)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ebpbench.exe --workload cold|warm|live --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "cold"; "warm"; "live" ]) then begin
    prerr_endline "perfbench: --workload must be cold, warm or live";
    exit 2
  end;
  if not (Sys.file_exists !ebp) then begin
    prerr_endline ("perfbench: no ebp executable at " ^ !ebp);
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~ebp:!ebp
