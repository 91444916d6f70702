(* Sharding layout: every domain owns one [shard] (reached through
   domain-local storage, created on first update) whose cells only that
   domain writes; the registry mutex guards registration, the shard list,
   snapshots, and gauges — never the update path. Domain ids are process-
   unique, so merged per-domain breakdowns never alias. *)

type counter = int
type gauge = int
type histogram = int

let enabled = ref false
let set_enabled b = enabled := b
let is_enabled () = !enabled

(* --- bucket geometry --- *)

let nbuckets = 64

let log2_floor v =
  let v = ref v and r = ref 0 in
  if !v lsr 32 <> 0 then begin r := !r + 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin r := !r + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin r := !r + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin r := !r + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin r := !r + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then incr r;
  !r

let bucket_of_value v = if v <= 0 then 0 else 1 + min (nbuckets - 2) (log2_floor v)
let bucket_upper k = if k = 0 then 0 else (1 lsl k) - 1

(* A histogram cell: [nbuckets] bucket counts followed by count, sum,
   min, max. *)
let idx_count = nbuckets
let idx_sum = nbuckets + 1
let idx_min = nbuckets + 2
let idx_max = nbuckets + 3
let cell_len = nbuckets + 4

(* --- registry --- *)

type kind = C | G | H

let mutex = Mutex.create ()
let kinds : (string, kind * int) Hashtbl.t = Hashtbl.create 64
let counter_names = ref ([] : string list) (* newest first; index = pos from end *)
let gauge_names = ref ([] : string list)
let hist_names = ref ([] : string list)
let ncounters = ref 0
let ngauges = ref 0
let nhists = ref 0
let gauge_values = ref (Array.make 8 0.0)
let gauge_set = ref (Array.make 8 false)

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let kind_name = function C -> "counter" | G -> "gauge" | H -> "histogram"

let register kind count names name =
  locked (fun () ->
      match Hashtbl.find_opt kinds name with
      | Some (k, i) when k = kind -> i
      | Some (k, _) ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name k)
               (kind_name kind))
      | None ->
          let i = !count in
          incr count;
          names := name :: !names;
          Hashtbl.add kinds name (kind, i);
          i)

let registered () =
  locked (fun () ->
      Hashtbl.fold (fun name (k, _) acc -> (name, kind_name k) :: acc) kinds [])
  |> List.sort compare

let counter name = register C ncounters counter_names name
let histogram name = register H nhists hist_names name

let gauge name =
  let i = register G ngauges gauge_names name in
  locked (fun () ->
      let len = Array.length !gauge_values in
      if i >= len then begin
        let values = Array.make (max (i + 1) (2 * len)) 0.0 in
        let set = Array.make (Array.length values) false in
        Array.blit !gauge_values 0 values 0 len;
        Array.blit !gauge_set 0 set 0 len;
        gauge_values := values;
        gauge_set := set
      end);
  i

(* --- shards --- *)

type shard = {
  dom : int;
  mutable c : int array; (* counter cells, by counter index *)
  mutable h : int array array; (* histogram cells, by histogram index *)
}

let shards = ref ([] : shard list)

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        { dom = (Domain.self () :> int); c = Array.make 16 0; h = Array.make 8 [||] }
      in
      locked (fun () -> shards := s :: !shards);
      s)

let counter_cells s i =
  let c = s.c in
  if i < Array.length c then c
  else begin
    let bigger = Array.make (max (i + 1) (2 * Array.length c)) 0 in
    Array.blit c 0 bigger 0 (Array.length c);
    s.c <- bigger;
    bigger
  end

let hist_cell s i =
  let h =
    let h = s.h in
    if i < Array.length h then h
    else begin
      let bigger = Array.make (max (i + 1) (2 * Array.length h)) [||] in
      Array.blit h 0 bigger 0 (Array.length h);
      s.h <- bigger;
      bigger
    end
  in
  if Array.length h.(i) = 0 then h.(i) <- Array.make cell_len 0;
  h.(i)

(* --- updates --- *)

let add i n =
  if !enabled then begin
    let s = Domain.DLS.get shard_key in
    let c = counter_cells s i in
    c.(i) <- c.(i) + n
  end

let incr i = add i 1

let set i v =
  if !enabled then
    locked (fun () ->
        !gauge_values.(i) <- v;
        !gauge_set.(i) <- true)

let observe i v =
  if !enabled then begin
    let s = Domain.DLS.get shard_key in
    let cell = hist_cell s i in
    let b = bucket_of_value v in
    cell.(b) <- cell.(b) + 1;
    if cell.(idx_count) = 0 || v < cell.(idx_min) then cell.(idx_min) <- v;
    if cell.(idx_count) = 0 || v > cell.(idx_max) then cell.(idx_max) <- v;
    cell.(idx_count) <- cell.(idx_count) + 1;
    cell.(idx_sum) <- cell.(idx_sum) + v
  end

(* --- snapshots --- *)

type hist = {
  count : int;
  sum : int;
  min_v : int;
  max_v : int;
  buckets : (int * int) list;
}

type snapshot = {
  counters : (string * int * (int * int) list) list;
  gauges : (string * float) list;
  hists : (string * hist) list;
}

(* [names] is newest-first; index k lives at position (n - 1 - k). *)
let names_array names n =
  let arr = Array.make n "" in
  List.iteri (fun pos name -> arr.(n - 1 - pos) <- name) names;
  arr

let by_name_fst (a, _) (b, _) = String.compare a b

let snapshot () =
  locked (fun () ->
      let shards = List.sort (fun a b -> compare a.dom b.dom) !shards in
      let cnames = names_array !counter_names !ncounters in
      let counters =
        List.init !ncounters (fun i ->
            let per_domain =
              List.filter_map
                (fun s ->
                  if i < Array.length s.c && s.c.(i) <> 0 then Some (s.dom, s.c.(i))
                  else None)
                shards
            in
            let total = List.fold_left (fun acc (_, v) -> acc + v) 0 per_domain in
            (cnames.(i), total, per_domain))
        |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
      in
      let hnames = names_array !hist_names !nhists in
      let hists =
        List.init !nhists (fun i ->
            let merged = Array.make cell_len 0 in
            let seen = ref false in
            List.iter
              (fun s ->
                if i < Array.length s.h && Array.length s.h.(i) <> 0 then begin
                  let cell = s.h.(i) in
                  if cell.(idx_count) > 0 then begin
                    for b = 0 to nbuckets - 1 do
                      merged.(b) <- merged.(b) + cell.(b)
                    done;
                    if not !seen || cell.(idx_min) < merged.(idx_min) then
                      merged.(idx_min) <- cell.(idx_min);
                    if not !seen || cell.(idx_max) > merged.(idx_max) then
                      merged.(idx_max) <- cell.(idx_max);
                    merged.(idx_count) <- merged.(idx_count) + cell.(idx_count);
                    merged.(idx_sum) <- merged.(idx_sum) + cell.(idx_sum);
                    seen := true
                  end
                end)
              shards;
            let buckets = ref [] in
            for b = nbuckets - 1 downto 0 do
              if merged.(b) <> 0 then buckets := (b, merged.(b)) :: !buckets
            done;
            ( hnames.(i),
              {
                count = merged.(idx_count);
                sum = merged.(idx_sum);
                min_v = merged.(idx_min);
                max_v = merged.(idx_max);
                buckets = !buckets;
              } ))
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let gnames = names_array !gauge_names !ngauges in
      let gauges =
        List.init !ngauges (fun i ->
            if !gauge_set.(i) then Some (gnames.(i), !gauge_values.(i)) else None)
        |> List.filter_map Fun.id
        |> List.sort by_name_fst
      in
      { counters; gauges; hists })

let reset () =
  locked (fun () ->
      List.iter
        (fun s ->
          Array.fill s.c 0 (Array.length s.c) 0;
          Array.iter (fun cell -> Array.fill cell 0 (Array.length cell) 0) s.h)
        !shards;
      Array.fill !gauge_set 0 (Array.length !gauge_set) false)
