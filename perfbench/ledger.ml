(* The benchmark's own spans, recorded around each layer call of the
   traced replica, and the per-layer ledger computed from them.

   A span carries its name, start and end, the span that caused it, and
   the request it belongs to. Spans stay in memory until the ledger is
   computed. A layer's self time is its span's duration minus the time
   its child spans cover; calls run on one domain, so children never
   overlap and "cover" is a plain sum. Allocation is charged the same
   way, from [Gc.allocated_bytes]. *)

type span = {
  name : string;
  req : int;
  parent : int;  (* index into the recorded spans; -1 for a request root *)
  start_s : float;
  mutable stop_s : float;
  alloc0 : float;
  mutable alloc1 : float;
}

let enabled = ref false
let recorded : span array ref = ref [||]
let nspans = ref 0
let stack : int list ref = ref []
let current_req = ref (-1)

(* Self-test hook: a busy-wait charged inside one named layer. *)
let delay : (string * float) option ref = ref None

let busy_wait seconds =
  let until = Unix.gettimeofday () +. seconds in
  while Unix.gettimeofday () < until do
    ()
  done

(* Work counts per request: (request id, name) -> total. *)
let counts : (int * string, int) Hashtbl.t = Hashtbl.create 256

let count name n =
  if !enabled then begin
    let key = (!current_req, name) in
    Hashtbl.replace counts key (n + Option.value ~default:0 (Hashtbl.find_opt counts key))
  end

let counted ids name =
  List.fold_left
    (fun acc id -> acc + Option.value ~default:0 (Hashtbl.find_opt counts (id, name)))
    0 ids

let push s =
  if !nspans = Array.length !recorded then begin
    let bigger = Array.make (max 256 (2 * !nspans)) s in
    Array.blit !recorded 0 bigger 0 !nspans;
    recorded := bigger
  end;
  !recorded.(!nspans) <- s;
  incr nspans;
  !nspans - 1

let span name f =
  if not !enabled then f ()
  else begin
    let id =
      push
        {
          name;
          req = !current_req;
          parent = (match !stack with p :: _ -> p | [] -> -1);
          start_s = Unix.gettimeofday ();
          stop_s = nan;
          alloc0 = Gc.allocated_bytes ();
          alloc1 = nan;
        }
    in
    stack := id :: !stack;
    let close () =
      let s = !recorded.(id) in
      s.alloc1 <- Gc.allocated_bytes ();
      s.stop_s <- Unix.gettimeofday ();
      stack := List.tl !stack
    in
    match
      (match !delay with
      | Some (layer, seconds) when layer = name -> busy_wait seconds
      | _ -> ());
      f ()
    with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* One request: a root span named "request" under the given id. The
   root is not a layer; its own time counts towards the residual. *)
let request id f =
  current_req := id;
  span "request" f

(* Per request, per layer: summed self time (s) and self allocation
   (bytes). Layers are every span name except the request root. *)
type cell = { mutable self_s : float; mutable self_alloc : float }

let ledger () : (int, (string, cell) Hashtbl.t) Hashtbl.t =
  let n = !nspans and spans = !recorded in
  let child_s = Array.make n 0.0 and child_alloc = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = spans.(i) in
    if s.parent >= 0 then begin
      child_s.(s.parent) <- child_s.(s.parent) +. (s.stop_s -. s.start_s);
      child_alloc.(s.parent) <-
        child_alloc.(s.parent) +. (s.alloc1 -. s.alloc0)
    end
  done;
  let by_req = Hashtbl.create 256 in
  for i = 0 to n - 1 do
    let s = spans.(i) in
    if s.name <> "request" then begin
      let layers =
        match Hashtbl.find_opt by_req s.req with
        | Some l -> l
        | None ->
            let l = Hashtbl.create 16 in
            Hashtbl.replace by_req s.req l;
            l
      in
      let c =
        match Hashtbl.find_opt layers s.name with
        | Some c -> c
        | None ->
            let c = { self_s = 0.0; self_alloc = 0.0 } in
            Hashtbl.replace layers s.name c;
            c
      in
      c.self_s <- c.self_s +. (s.stop_s -. s.start_s) -. child_s.(i);
      c.self_alloc <- c.self_alloc +. (s.alloc1 -. s.alloc0) -. child_alloc.(i)
    end
  done;
  by_req
