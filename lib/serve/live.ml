module Compiler = Ebp_lang.Compiler
module Loader = Ebp_runtime.Loader
module Machine = Ebp_machine.Machine
module Stream = Ebp_trace.Stream
module Recorder = Ebp_trace.Recorder
module Write_index = Ebp_trace.Write_index
module Metrics = Ebp_obs.Metrics

let m_jobs = Metrics.counter "serve.live.jobs"
let m_advances = Metrics.counter "serve.live.advances"
let m_completed = Metrics.counter "serve.live.completed"

(* One in-progress recording: a loader mid-run, streaming sealed blocks
   into an in-memory buffer, with the write index maintained
   incrementally block-by-block. The job is advanced cooperatively —
   each live query runs it a few fuel slices further — so the daemon
   never blocks longer than one slice per wait iteration. *)
type job = {
  writer : Stream.Writer.t;
  buf : Buffer.t;
  loader : Loader.t;
  recorder : Recorder.t;
  inc : Write_index.Incremental.builder;
  mutable fuel_left : int;
  mutable finished : bool;
}

type t = {
  jobs : (string, job) Hashtbl.t;
  block_events : int;
  page_sizes : int list;
}

let create ?(block_events = Stream.default_block_events)
    ?(page_sizes = Ebp_sessions.Replay.default_page_sizes) () =
  { jobs = Hashtbl.create 4; block_events; page_sizes }

(* Machine.run's default fuel: a live recording consumes exactly the
   budget a batch [Recorder.record] would, so the completed stream is
   equal to the batch trace even for programs that hit it. *)
let total_fuel = 200_000_000
let slice = 262_144

let job_key ~name ~source ~seed =
  Printf.sprintf "%s\x00%s\x00%d" name (Digest.to_hex (Digest.string source)) seed

let start t ~source ~seed =
  match Compiler.compile source with
  | Error _ as e -> e
  | Ok compiled ->
      let buf = Buffer.create (1 lsl 16) in
      let writer =
        Stream.Writer.create ~block_events:t.block_events
          ~write:(Buffer.add_string buf) ()
      in
      let inc = Write_index.Incremental.create ~page_sizes:t.page_sizes in
      Stream.Writer.set_on_seal writer (fun ~first:_ ~count ~nobjs iter ->
          Write_index.Incremental.add_block inc ~nobjs ~count iter);
      let loader = Loader.load ~seed compiled in
      let recorder = Recorder.attach_stream writer loader in
      Metrics.incr m_jobs;
      Ok
        {
          writer;
          buf;
          loader;
          recorder;
          inc;
          fuel_left = total_fuel;
          finished = false;
        }

(* Advance until the sealed prefix strictly exceeds [min_events] or the
   run stops (halt, error, or total fuel) — strict, so polling with the
   previous high-water always observes progress. *)
let advance job ~min_events =
  while
    (not job.finished)
    && Stream.Writer.sealed_events job.writer <= min_events
  do
    let fuel = min slice job.fuel_left in
    let res = Loader.run ~fuel job.loader in
    job.fuel_left <- job.fuel_left - fuel;
    Metrics.incr m_advances;
    match res.Loader.status with
    | Machine.Out_of_fuel when job.fuel_left > 0 -> ()
    | _ ->
        Recorder.finish_events job.recorder;
        Stream.Writer.finish job.writer;
        job.finished <- true;
        Metrics.incr m_completed
  done

type prefix = {
  p_trace : Ebp_trace.Trace.t;
  p_index : Write_index.t option;  (** [None] when fault-degraded *)
  p_high_water : int;
  p_complete : bool;
}

let fetch t ~name ~source ~seed ~min_events =
  let key = job_key ~name ~source ~seed in
  let job =
    match Hashtbl.find_opt t.jobs key with
    | Some job -> Ok job
    | None ->
        Result.map
          (fun job ->
            Hashtbl.replace t.jobs key job;
            job)
          (start t ~source ~seed)
  in
  match job with
  | Error _ as e -> e
  | Ok job -> (
      advance job ~min_events;
      match Stream.read_prefix (Buffer.contents job.buf) with
      | Error _ as e -> e
      | Ok { Stream.trace; high_water; complete } ->
          Ok
            {
              p_trace = trace;
              p_index = Write_index.Incremental.snapshot job.inc;
              p_high_water = high_water;
              p_complete = complete;
            })

let jobs t = Hashtbl.length t.jobs
