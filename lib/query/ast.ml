(* Typed AST of the trace query language. A query selects from the
   trace's WRITE events: the predicate filters them, the aggregation
   reduces them. Semantics are specified in docs/QUERY.md and pinned by
   the two execution engines agreeing on every query (Scan_engine is the
   oracle for Compiled). *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | All  (* no [where] clause; only ever the whole predicate *)
  | Pc_cmp of cmp * int
  | Pc_in of int * int  (* inclusive *)
  | Addr_in of int * int  (* write range intersects [a, b] *)
  | Time_in of int * int  (* event index within [a, b] *)
  | Live of Ebp_sessions.Session.t
      (* write lands in some matching object's install window: strictly
         between install and remove, intersecting the installed range *)
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type distinct_field = D_pc | D_word
type group_key = G_object | G_pc
type agg = Count | Count_distinct of distinct_field

type query = {
  agg : agg;
  pred : pred;
  group : group_key option;
  top : int option;  (* only with [group] *)
  bucket : int option;  (* bucket width in events; excludes [group] *)
}

let equal (a : query) (b : query) = a = b

(* The event window a predicate confines its matches to: the
   intersection of its top-level [time in] conjuncts, or [None] when it
   has none. No write outside it can match, so both engines may skip
   the events past its end and the writes before its start; the
   planner prices their passes by it. It may be empty ([a > b]). *)
let rec window = function
  | Time_in (a, b) -> Some (a, b)
  | And (x, y) -> (
      match (window x, window y) with
      | Some (a, b), Some (c, d) -> Some (max a c, min b d)
      | (Some _ as w), None | None, (Some _ as w) -> w
      | None, None -> None)
  | All | Pc_cmp _ | Pc_in _ | Addr_in _ | Live _ | Or _ | Not _ -> None

(* --- canonical rendering (inverse of Parser.parse) --- *)

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* The [live(...)] session descriptor; Parser.session_of_spec is the
   inverse. *)
let spec_of_session (s : Ebp_sessions.Session.t) =
  match s with
  | One_local_auto { func; var } -> Printf.sprintf "local:%s.%s" func var
  | All_local_in_func { func } -> Printf.sprintf "locals:%s" func
  | One_global_static { var } -> Printf.sprintf "global:%s" var
  | One_heap { site; seq } -> Printf.sprintf "heap:%s#%d" site seq
  | All_heap_in_func { func } -> Printf.sprintf "heapfn:%s" func

(* Precedence: or < and < not < atom. A child at its parent's level is
   parenthesized on the right, so the rendering reparses to the same
   tree (the parser is left-associative). *)
let rec add_pred buf prec p =
  let wrap need body =
    if need then begin
      Buffer.add_char buf '(';
      body ();
      Buffer.add_char buf ')'
    end
    else body ()
  in
  match p with
  | All -> Buffer.add_string buf "all"
  | Pc_cmp (c, n) ->
      Buffer.add_string buf (Printf.sprintf "pc %s %d" (cmp_to_string c) n)
  | Pc_in (a, b) -> Buffer.add_string buf (Printf.sprintf "pc in [%d,%d]" a b)
  | Addr_in (a, b) ->
      Buffer.add_string buf (Printf.sprintf "addr in [%d,%d]" a b)
  | Time_in (a, b) ->
      Buffer.add_string buf (Printf.sprintf "time in [%d,%d]" a b)
  | Live s ->
      Buffer.add_string buf "live(";
      Buffer.add_string buf (spec_of_session s);
      Buffer.add_char buf ')'
  | Or (a, b) ->
      wrap (prec > 1) (fun () ->
          add_pred buf 1 a;
          Buffer.add_string buf " or ";
          add_pred buf 2 b)
  | And (a, b) ->
      wrap (prec > 2) (fun () ->
          add_pred buf 2 a;
          Buffer.add_string buf " and ";
          add_pred buf 3 b)
  | Not a ->
      Buffer.add_string buf "not ";
      add_pred buf 3 a

let pred_to_string p =
  let buf = Buffer.create 64 in
  add_pred buf 0 p;
  Buffer.contents buf

let to_string (q : query) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf
    (match q.agg with
    | Count -> "count"
    | Count_distinct D_pc -> "count distinct pc"
    | Count_distinct D_word -> "count distinct word");
  (match q.pred with
  | All -> ()
  | p ->
      Buffer.add_string buf " where ";
      add_pred buf 0 p);
  (match q.group with
  | Some k ->
      Buffer.add_string buf
        (match k with G_object -> " group by object" | G_pc -> " group by pc");
      Option.iter (fun t -> Buffer.add_string buf (Printf.sprintf " top %d" t)) q.top
  | None -> ());
  Option.iter (fun w -> Buffer.add_string buf (Printf.sprintf " bucket by %d" w)) q.bucket;
  Buffer.contents buf

(* --- shrinking (for the fuzzer's minimal-reproducer search) --- *)

(* One-step predicate simplifications: each composite node replaced by
   one of its children. *)
let rec pred_candidates p =
  match p with
  | All | Pc_cmp _ | Pc_in _ | Addr_in _ | Time_in _ | Live _ -> []
  | And (a, b) ->
      (a :: b :: List.map (fun a' -> And (a', b)) (pred_candidates a))
      @ List.map (fun b' -> And (a, b')) (pred_candidates b)
  | Or (a, b) ->
      (a :: b :: List.map (fun a' -> Or (a', b)) (pred_candidates a))
      @ List.map (fun b' -> Or (a, b')) (pred_candidates b)
  | Not a -> a :: List.map (fun a' -> Not a') (pred_candidates a)

let shrink_candidates (q : query) =
  let drop_clauses =
    List.filter_map Fun.id
      [
        (if q.top <> None then Some { q with top = None } else None);
        (if q.bucket <> None then Some { q with bucket = None } else None);
        (if q.group <> None then Some { q with group = None; top = None }
         else None);
        (match q.agg with
        | Count_distinct _ -> Some { q with agg = Count }
        | Count -> None);
        (if q.pred <> All then Some { q with pred = All } else None);
      ]
  in
  drop_clauses @ List.map (fun p -> { q with pred = p }) (pred_candidates q.pred)
