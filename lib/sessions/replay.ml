module Trace = Ebp_trace.Trace
module Write_index = Ebp_trace.Write_index
module Bitmap = Ebp_util.Bitmap
module Metrics = Ebp_obs.Metrics
module Obs_span = Ebp_obs.Span

(* Replay observability, at shard granularity only: counters are bumped
   once per shard (never per event), so the enabled cost is noise and the
   disabled cost is a handful of branches per replay call. The
   scan-vs-indexed pair [replay.scan.writes] / [replay.indexed.writes]
   (see {!Indexed_replay}) quantifies how much event scanning the index
   turns into range arithmetic. *)
let m_sessions = Metrics.counter "replay.sessions"
let m_shards = Metrics.counter "replay.shards"
let m_writes_scanned = Metrics.counter "replay.scan.writes"
let m_blocks_skipped = Metrics.counter "replay.scan.blocks_skipped"
let m_writes_skipped = Metrics.counter "replay.scan.writes_skipped"

let default_page_sizes = [ 4096; 8192 ]

type engine = Scan | Indexed

(* Reverse index value: a small mutable set of session ids. Most words are
   monitored by a handful of sessions (a heap word belongs to one OneHeap
   session plus its enclosing AllHeapInFunc sessions), so a list carries
   the members; crowded sets — pages shared by hundreds of co-located
   sessions — lazily grow a bitmap so membership stays O(1) instead of
   degrading linearly with co-location. *)
type id_set = {
  mutable ids : int list;
  mutable size : int;
  mutable bits : Bitmap.t option;
}

let promote_threshold = 8

let set_mem s id =
  match s.bits with
  | Some b -> Bitmap.get b id
  | None -> List.memq id s.ids

let set_add ~nsessions s id =
  if not (set_mem s id) then begin
    s.ids <- id :: s.ids;
    s.size <- s.size + 1;
    match s.bits with
    | Some b -> Bitmap.set b id
    | None ->
        if s.size > promote_threshold then begin
          let b = Bitmap.create nsessions in
          List.iter (Bitmap.set b) s.ids;
          s.bits <- Some b
        end
  end

let set_remove s id =
  if set_mem s id then begin
    s.ids <- List.filter (fun x -> x != id) s.ids;
    s.size <- s.size - 1;
    match s.bits with Some b -> Bitmap.clear b id | None -> ()
  end

(* Per page size state: page-index maps for protection-transition counting
   and the "write touched an active page" statistic. *)
type page_state = {
  page_size : int;
  page_shift : int;
  (* (session, page) -> number of active monitors of that session on page.
     Key packed as session lsl page_index_bits lor page. *)
  counts : (int, int) Hashtbl.t;
  (* page -> sessions with at least one active monitor there *)
  active : (int, id_set) Hashtbl.t;
  protects : int array;
  unprotects : int array;
  touches : int array;  (* writes landing on an active page, per session *)
}

let log2_exact n =
  let rec go i v = if v = 1 then i else go (i + 1) (v lsr 1) in
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Replay: page size must be a positive power of two"
  else go 0 n

let make_page_state nsessions page_size =
  {
    page_size;
    page_shift = log2_exact page_size;
    counts = Hashtbl.create 1024;
    active = Hashtbl.create 1024;
    protects = Array.make nsessions 0;
    unprotects = Array.make nsessions 0;
    touches = Array.make nsessions 0;
  }

(* 40 page-index bits cover a 32-bit space down to 1-byte pages (1 KiB
   pages need 22 bits — exactly what a 22-bit shift would have collided
   on); sessions stay well under the remaining 2^22. The guard turns an
   address space larger than the packing into an error instead of silent
   key collisions. *)
let page_index_bits = 40

let pack session page =
  if page lsr page_index_bits <> 0 then
    invalid_arg
      "Replay: page index exceeds 40 bits (page size too small for this \
       address space)";
  (session lsl page_index_bits) lor page

let page_install ~nsessions ps session ~lo ~hi =
  let first = lo lsr ps.page_shift and last = hi lsr ps.page_shift in
  for page = first to last do
    let key = pack session page in
    let count = Option.value ~default:0 (Hashtbl.find_opt ps.counts key) in
    Hashtbl.replace ps.counts key (count + 1);
    if count = 0 then begin
      ps.protects.(session) <- ps.protects.(session) + 1;
      let set =
        match Hashtbl.find_opt ps.active page with
        | Some s -> s
        | None ->
            let s = { ids = []; size = 0; bits = None } in
            Hashtbl.add ps.active page s;
            s
      in
      set_add ~nsessions set session
    end
  done

let page_remove ps session ~lo ~hi =
  let first = lo lsr ps.page_shift and last = hi lsr ps.page_shift in
  for page = first to last do
    let key = pack session page in
    match Hashtbl.find_opt ps.counts key with
    | None -> ()
    | Some count ->
        if count <= 1 then begin
          Hashtbl.remove ps.counts key;
          ps.unprotects.(session) <- ps.unprotects.(session) + 1;
          match Hashtbl.find_opt ps.active page with
          | Some set ->
              set_remove set session;
              if set.ids = [] then Hashtbl.remove ps.active page
          | None -> ()
        end
        else Hashtbl.replace ps.counts key (count - 1)
  done

(* [scratch] is a caller-owned all-clear bitmap used to skip sessions
   already touched on the write's first page; it is left all-clear. *)
let page_write ps scratch ~lo ~hi touch =
  let first = lo lsr ps.page_shift and last = hi lsr ps.page_shift in
  if last = first then
    match Hashtbl.find_opt ps.active first with
    | Some set -> List.iter touch set.ids
    | None -> ()
  else begin
    let first_ids =
      match Hashtbl.find_opt ps.active first with
      | Some set -> set.ids
      | None -> []
    in
    List.iter
      (fun id ->
        Bitmap.set scratch id;
        touch id)
      first_ids;
    (match Hashtbl.find_opt ps.active last with
    | Some set ->
        (* Avoid double-counting sessions active on both touched pages. *)
        List.iter (fun id -> if not (Bitmap.get scratch id) then touch id) set.ids
    | None -> ());
    List.iter (Bitmap.clear scratch) first_ids
  end

(* One shard: the original single-pass replay over an arbitrary subset of
   the sessions. Every per-session quantity (installs, hits, page
   transitions...) depends only on the trace and that session — never on
   which other sessions share the pass — and [total_writes] is a property
   of the trace alone, so replaying a subset yields exactly the rows the
   full pass would have produced for it. That independence is what makes
   the sharded parallel replay below bit-identical to the sequential one. *)
let replay_shard ~page_sizes trace sessions =
  Obs_span.with_span "replay.scan.shard" @@ fun () ->
  let sessions_arr = Array.of_list sessions in
  let nsessions = Array.length sessions_arr in
  (* Which sessions does each interned object belong to? Precomputed per
     object id, so the per-event work is a list walk. *)
  let objs = Trace.objects trace in
  let obj_sessions =
    Array.map
      (fun obj ->
        let acc = ref [] in
        for s = nsessions - 1 downto 0 do
          if Session.matches sessions_arr.(s) obj then acc := s :: !acc
        done;
        !acc)
      objs
  in
  let installs = Array.make nsessions 0 in
  let removes = Array.make nsessions 0 in
  let hits = Array.make nsessions 0 in
  (* word index -> sessions actively monitoring that word *)
  let word_sessions : (int, id_set) Hashtbl.t = Hashtbl.create 4096 in
  let page_states = List.map (make_page_state nsessions) page_sizes in
  let total_writes = ref 0 in
  let word_install session ~lo ~hi =
    for w = lo lsr 2 to hi lsr 2 do
      let set =
        match Hashtbl.find_opt word_sessions w with
        | Some s -> s
        | None ->
            let s = { ids = []; size = 0; bits = None } in
            Hashtbl.add word_sessions w s;
            s
      in
      set_add ~nsessions set session
    done
  in
  let word_remove session ~lo ~hi =
    for w = lo lsr 2 to hi lsr 2 do
      match Hashtbl.find_opt word_sessions w with
      | Some set ->
          set_remove set session;
          if set.ids = [] then Hashtbl.remove word_sessions w
      | None -> ()
    done
  in
  (* Per-write hit dedup (a write can touch two monitored words): a shared
     scratch bitmap plus an undo list, O(1) membership however many
     sessions co-locate on the written words. *)
  let scratch = Bitmap.create (max 1 nsessions) in
  let hit_marks = ref [] in
  (* Block skipping, over the summaries every trace carries: monitored
     words and active pages only ever lie inside the trace's global
     install bounds, so a block of pure writes whose range is disjoint
     from those bounds at the COARSEST granularity in play (words are 4
     bytes; pages are coarser) can contribute nothing but its write
     count — and coarse-page disjointness implies disjointness at every
     finer granularity, because a coarse page is a whole number of fine
     pages. Only [total_writes] moves, so the resulting counts are
     bit-identical to the full scan's. *)
  let blocks_skipped = ref 0 and writes_skipped = ref 0 in
  let skip =
    match Trace.install_bounds trace with
    | None -> fun ~min_lo:_ ~max_hi:_ -> false
    | Some (ilo, ihi) ->
        let shift =
          List.fold_left (fun acc ps -> max acc ps.page_shift) 2 page_states
        in
        fun ~min_lo ~max_hi ->
          max_hi lsr shift < ilo lsr shift || min_lo lsr shift > ihi lsr shift
  in
  let on_skip ~writes =
    total_writes := !total_writes + writes;
    incr blocks_skipped;
    writes_skipped := !writes_skipped + writes
  in
  Trace.iter_raw_skipping trace ~skip ~on_skip (fun ~tag ~obj ~lo ~hi ~pc:_ ->
      if tag = 0 then
        List.iter
          (fun s ->
            installs.(s) <- installs.(s) + 1;
            word_install s ~lo ~hi;
            List.iter (fun ps -> page_install ~nsessions ps s ~lo ~hi) page_states)
          obj_sessions.(obj)
      else if tag = 1 then
        List.iter
          (fun s ->
            removes.(s) <- removes.(s) + 1;
            word_remove s ~lo ~hi;
            List.iter (fun ps -> page_remove ps s ~lo ~hi) page_states)
          obj_sessions.(obj)
      else begin
        incr total_writes;
        let first_word = lo lsr 2 and last_word = hi lsr 2 in
        for w = first_word to last_word do
          match Hashtbl.find_opt word_sessions w with
          | Some set ->
              List.iter
                (fun s ->
                  if not (Bitmap.get scratch s) then begin
                    Bitmap.set scratch s;
                    hit_marks := s :: !hit_marks;
                    hits.(s) <- hits.(s) + 1
                  end)
                set.ids
          | None -> ()
        done;
        (match !hit_marks with
        | [] -> ()
        | marks ->
            List.iter (Bitmap.clear scratch) marks;
            hit_marks := []);
        List.iter
          (fun ps ->
            page_write ps scratch ~lo ~hi (fun s ->
                ps.touches.(s) <- ps.touches.(s) + 1))
          page_states
      end);
  Metrics.incr m_shards;
  Metrics.add m_sessions nsessions;
  Metrics.add m_writes_scanned !total_writes;
  Metrics.add m_blocks_skipped !blocks_skipped;
  Metrics.add m_writes_skipped !writes_skipped;
  List.mapi
    (fun s session ->
      let vm =
        List.map
          (fun ps ->
            {
              Counts.page_size = ps.page_size;
              protects = ps.protects.(s);
              unprotects = ps.unprotects.(s);
              (* Every hit lands on an active page, so misses-on-active-pages
                 = touches - hits. *)
              active_page_misses = ps.touches.(s) - hits.(s);
            })
          page_states
      in
      ( session,
        {
          Counts.installs = installs.(s);
          removes = removes.(s);
          hits = hits.(s);
          misses = !total_writes - hits.(s);
          vm;
        } ))
    sessions

(* Split [xs] into at most [n] contiguous runs of near-equal length,
   preserving order; concatenating the result restores [xs]. *)
let split_contiguous n xs =
  let arr = Array.of_list xs in
  let len = Array.length arr in
  List.filter
    (fun shard -> shard <> [])
    (List.init n (fun i ->
         let lo = len * i / n and hi = len * (i + 1) / n in
         Array.to_list (Array.sub arr lo (hi - lo))))

let replay_all ?(page_sizes = default_page_sizes) ?pool ?domains
    ?(engine = Indexed) ?index trace sessions =
  (* The index is built once (or taken prebuilt) and shared immutably by
     every shard; only the session list is split across domains. The
     build itself also uses the pool when one is in play — per-chunk
     tables merged into a structurally identical index. *)
  let go pool_opt =
    let shard_fn =
      match engine with
      | Scan -> replay_shard ~page_sizes trace
      | Indexed ->
          let index =
            match index with
            | Some idx -> idx
            | None -> Write_index.build ?pool:pool_opt ~page_sizes trace
          in
          Indexed_replay.replay_shard ~index ~page_sizes trace
    in
    match pool_opt with
    | None -> shard_fn sessions
    | Some pool ->
        let n = min (Ebp_util.Domain_pool.domains pool) (List.length sessions) in
        if n <= 1 then shard_fn sessions
        else
          List.concat
            (Ebp_util.Domain_pool.map pool shard_fn (split_contiguous n sessions))
  in
  match (pool, domains) with
  | Some pool, _ -> go (Some pool)
  | None, (None | Some 1) -> go None
  | None, Some n ->
      Ebp_util.Domain_pool.with_pool ~domains:n (fun pool -> go (Some pool))

let replay ?page_sizes ?engine ?index trace session =
  match replay_all ?page_sizes ?engine ?index trace [ session ] with
  | [ (_, counts) ] -> counts
  | _ -> assert false

let discover_and_replay ?page_sizes ?pool ?domains ?engine ?index
    ?(keep_hitless = false) trace =
  let sessions = Discovery.discover trace in
  let results = replay_all ?page_sizes ?pool ?domains ?engine ?index trace sessions in
  if keep_hitless then results
  else List.filter (fun (_, c) -> c.Counts.hits > 0) results
