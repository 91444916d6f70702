(* The query subsystem: parser round-trips and diagnostics, the
   Pos_set algebra against naive list sets, and the central guarantee —
   the compiled (index) engine agrees with the streaming scan oracle on
   every query, over both synthetic adversarial traces (wide writes,
   word-boundary spans, reinstalls, address reuse) and a real recorded
   MiniC program. *)

module Interval = Ebp_util.Interval
module Object_desc = Ebp_trace.Object_desc
module Trace = Ebp_trace.Trace
module Write_index = Ebp_trace.Write_index
module Session = Ebp_sessions.Session
module Ast = Ebp_query.Ast
module Parser = Ebp_query.Parser
module Query = Ebp_query.Query
module Qresult = Ebp_query.Qresult

let iv lo hi = Interval.make ~lo ~hi
let page_sizes = Ebp_sessions.Replay.default_page_sizes

(* --- parser: acceptance and canonical round-trip --- *)

let parse_ok s =
  match Parser.parse s with
  | Ok q -> q
  | Error e -> Alcotest.failf "parse %S: %s" s (Parser.error_line s e)

let test_parse_canonical () =
  (* Canonical strings reparse to themselves via Ast.to_string. *)
  List.iter
    (fun s -> Alcotest.(check string) s s (Ast.to_string (parse_ok s)))
    [
      "count";
      "count distinct pc";
      "count distinct word";
      "count where pc = 5";
      "count where pc != 5";
      "count where pc in [2,17]";
      "count where addr in [4096,8191]";
      "count where time in [0,100]";
      "count where live(local:main.t)";
      "count where live(locals:f)";
      "count where live(global:g)";
      "count where live(heap:alloc_vec#3)";
      "count where live(heapfn:main)";
      "count where pc = 1 and addr in [0,15]";
      "count where pc = 1 or pc = 2 or pc = 3";
      "count where not pc = 1 and not (pc = 2 or time in [9,10])";
      "count where live(global:g) and time in [100,200] group by pc top 5";
      "count where addr in [0,1023] group by object";
      "count where pc >= 3 bucket by 1000";
    ]

let test_parse_sugar () =
  (* Non-canonical spellings parse to the same AST. *)
  let same a b =
    Alcotest.(check bool)
      (a ^ " = " ^ b)
      true
      (Ast.equal (parse_ok a) (parse_ok b))
  in
  same "count where pc = 0x10" "count where pc = 16";
  same "count where (pc = 1)" "count where pc = 1";
  same "count where live( local:main.t )" "count where live(local:main.t)";
  same "count  where\tpc=1 and(pc=2)" "count where pc = 1 and pc = 2"

let test_parse_errors () =
  (* Every syntax/type error is a one-line message with a caret column. *)
  let err s =
    match Parser.parse s with
    | Ok _ -> Alcotest.failf "expected %S to be rejected" s
    | Error e -> Parser.error_line s e
  in
  let check s expect = Alcotest.(check string) s expect (err s) in
  check "count where pc >"
    "query:1:17: expected an integer after the comparison, got 'end of query'";
  check "count where pc in [5,2]" "query:1:19: empty pc range: 5 > 2";
  check "count where live(bogus)"
    "query:1:18: bad session descriptor \"bogus\" (expected local:FUNC.VAR, \
     locals:FUNC, global:VAR, heap:SITE#N, or heapfn:FUNC)";
  check "count where live(global:g" "query:1:17: unterminated live(...): missing ')'";
  check "count distinct pc group by pc"
    "query:1:19: count distinct cannot be combined with group by";
  check "count group by pc bucket by 10"
    "query:1:19: group by and bucket by cannot be combined";
  check "count where pc = 1 top 3" "query:1:20: unexpected 'top' after the query";
  check "frobnicate" "query:1:1: expected 'count', got 'frobnicate'";
  check "count where pc @ 3" "query:1:16: unexpected character '@'"

let test_error_caret () =
  match Parser.parse "count where pc in [5,2]" with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error e ->
      Alcotest.(check string) "caret"
        "  count where pc in [5,2]\n                    ^"
        (Parser.error_caret "count where pc in [5,2]" e)

(* --- Pos_set algebra vs naive list sets --- *)

let sorted_set_gen =
  QCheck2.Gen.(
    map
      (fun l -> Array.of_list (List.sort_uniq Int.compare l))
      (list_size (int_range 0 40) (int_range 0 60)))

(* [union] merges its slices as sorted runs: 0 to 40 of them, a fifth
   empty, covers the merge's odd run counts and the empty union. *)
let prop_pos_set_algebra =
  QCheck2.Test.make ~name:"Pos_set agrees with naive list sets" ~count:500
    QCheck2.Gen.(
      triple sorted_set_gen sorted_set_gen
        (list_size (int_range 0 40)
           (frequency [ (1, return [||]); (4, sorted_set_gen) ])))
    (fun (a, b, slices) ->
      let module P = Write_index.Pos_set in
      let l x = Array.to_list x in
      let naive_union xs = List.sort_uniq Int.compare (List.concat_map l xs) in
      let naive_inter x y = List.filter (fun v -> List.mem v (l y)) (l x) in
      let naive_diff x y = List.filter (fun v -> not (List.mem v (l y))) (l x) in
      l (P.union slices) = naive_union slices
      && l (P.inter a b) = naive_inter a b
      && l (P.diff a b) = naive_diff a b)

(* --- random traces (the adversarial universe of test_indexed.ml) --- *)

let objects =
  [|
    (Object_desc.Global { var = "a" }, iv 0x1000 0x1003);
    (Object_desc.Global { var = "b" }, iv 0x13fc 0x1407);
    (Object_desc.Global { var = "wide" }, iv 0x2000 0x202b);
    (Object_desc.Heap { context = [ "f"; "main" ]; seq = 1 }, iv 0x3000 0x300b);
    (Object_desc.Local { func = "f"; var = "x"; inst = 1 }, iv 0x8000 0x8003);
    (Object_desc.Local { func = "f"; var = "x"; inst = 2 }, iv 0x8000 0x8003);
    (Object_desc.Local { func = "f"; var = "y"; inst = 1 }, iv 0x8004 0x8007);
    (Object_desc.Global { var = "far" }, iv 0x1_0000_1000 0x1_0000_100b);
  |]

(* Up to 120 events; kind 6 writes the top words of the address space,
   for [distinct word] keys near [max_int]. *)
let trace_gen =
  let open QCheck2.Gen in
  let* ops =
    list_size (int_range 1 120)
      (triple (int_range 0 6) (int_range 0 7) (int_range 0 40))
  in
  return
    (let b = Trace.Builder.create () in
     List.iter
       (fun (kind, idx, jitter) ->
         let idx = idx mod Array.length objects in
         let obj, range = objects.(idx) in
         match kind with
         | 0 | 1 -> Trace.Builder.add_install b obj range
         | 2 -> Trace.Builder.add_remove b obj range
         | 3 ->
             let lo = (Interval.lo range + (jitter * 412)) land lnot 3 in
             Trace.Builder.add_write b (iv lo (lo + 3)) ~pc:idx
         | 4 ->
             let lo = (Interval.lo range + (jitter * 512)) land lnot 3 in
             Trace.Builder.add_write b (iv lo (lo + 19 + (4 * jitter))) ~pc:idx
         | 6 ->
             let hi = max_int - (jitter * 4) in
             Trace.Builder.add_write b (iv (hi - 3 - (jitter land 4)) hi) ~pc:(max_int - idx)
         | _ ->
             let lo = Interval.lo range + jitter in
             Trace.Builder.add_write b (iv lo (lo + 2)) ~pc:idx)
       ops;
     Trace.Builder.finish b)

(* --- random well-typed queries --- *)

let session_gen =
  QCheck2.Gen.oneofl
    [
      Session.One_global_static { var = "a" };
      Session.One_global_static { var = "b" };
      Session.One_global_static { var = "wide" };
      Session.One_heap { site = "f"; seq = 1 };
      Session.One_local_auto { func = "f"; var = "x" };
      Session.All_local_in_func { func = "f" };
      Session.All_heap_in_func { func = "main" };
      Session.One_global_static { var = "absent" };
    ]

let pred_gen =
  let open QCheck2.Gen in
  let atom =
    oneof
      [
        (let* c = oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ]
         and* n = int_range 0 9 in
         return (Ast.Pc_cmp (c, n)));
        (let* a = int_range 0 6 and* d = int_range 0 4 in
         return (Ast.Pc_in (a, a + d)));
        (let* a = int_range 0 0x11000 and* d = int_range 0 0x3000 in
         return (Ast.Addr_in (a, a + d)));
        (let* a = int_range 0 130 and* d = int_range 0 60 in
         return (Ast.Time_in (a, a + d)));
        map (fun s -> Ast.Live s) session_gen;
      ]
  in
  sized_size (int_range 0 4) @@ fix (fun self n ->
      if n = 0 then atom
      else
        frequency
          [
            (2, atom);
            ( 2,
              let* a = self (n / 2) and* b = self (n / 2) in
              return (Ast.And (a, b)) );
            ( 2,
              let* a = self (n / 2) and* b = self (n / 2) in
              return (Ast.Or (a, b)) );
            (1, map (fun p -> Ast.Not p) (self (n - 1)));
          ])

let query_gen =
  let open QCheck2.Gen in
  let* pred = frequency [ (5, pred_gen); (1, return Ast.All) ] in
  let* shape = int_range 0 5 in
  match shape with
  | 0 -> return { Ast.agg = Ast.Count; pred; group = None; top = None; bucket = None }
  | 1 ->
      let* f = oneofl [ Ast.D_pc; Ast.D_word ] in
      return { Ast.agg = Ast.Count_distinct f; pred; group = None; top = None; bucket = None }
  | 2 | 3 ->
      let* key = oneofl [ Ast.G_object; Ast.G_pc ] in
      let* top = opt (int_range 1 5) in
      return { Ast.agg = Ast.Count; pred; group = Some key; top; bucket = None }
  | _ ->
      (* One event per bucket, a few, or one bucket wider than the
         trace. *)
      let* w = frequency [ (1, return 1); (3, int_range 2 50); (1, int_range 121 100_000) ] in
      return { Ast.agg = Ast.Count; pred; group = None; top = None; bucket = Some w }

(* --- round-trip: parse (to_string q) = q --- *)

let prop_print_parse_round_trip =
  QCheck2.Test.make ~name:"parse (to_string q) = q" ~count:1000 query_gen
    (fun q ->
      match Parser.parse (Ast.to_string q) with
      | Ok q' -> Ast.equal q q'
      | Error e ->
          QCheck2.Test.fail_reportf "rendered query %S rejected: %s"
            (Ast.to_string q)
            (Parser.error_line (Ast.to_string q) e))

(* --- the tentpole property: compiled engine = scan oracle --- *)

(* The shapes that count per key in [Tally] rather than in one counter:
   pcs, words, object ids and bucket numbers, one event per bucket or
   one bucket past the whole trace. *)
let tally_query_gen =
  let open QCheck2.Gen in
  let* pred = frequency [ (1, pred_gen); (1, return Ast.All) ] in
  let q = { Ast.agg = Ast.Count; pred; group = None; top = None; bucket = None } in
  oneofl
    [
      { q with group = Some Ast.G_pc };
      { q with group = Some Ast.G_object };
      { q with bucket = Some 1 };
      { q with bucket = Some 1_000_000 };
      { q with agg = Ast.Count_distinct Ast.D_word };
      { q with agg = Ast.Count_distinct Ast.D_pc };
    ]

let prop_engines_agree =
  QCheck2.Test.make ~name:"compiled engine = scan oracle" ~count:500
    QCheck2.Gen.(pair trace_gen (frequency [ (4, query_gen); (1, tally_query_gen) ]))
    (fun (trace, q) ->
      let index = Write_index.build ~page_sizes trace in
      match Query.check_engines ~index trace q with
      | Ok _ -> true
      | Error msg -> QCheck2.Test.fail_report msg)

(* Shrink candidates stay well-typed (parseable after rendering), so the
   fuzzer's minimal reproducers are always runnable. *)
let prop_shrink_candidates_well_typed =
  QCheck2.Test.make ~name:"shrink candidates reparse" ~count:300 query_gen
    (fun q ->
      List.for_all
        (fun q' ->
          match Parser.parse (Ast.to_string q') with
          | Ok q'' -> Ast.equal q' q''
          | Error _ -> false)
        (Ast.shrink_candidates q))

(* --- a real recorded program --- *)

let tiny_source =
  {|
int g;
int h[4];
int main() {
  int i;
  int* p;
  p = malloc(8);
  for (i = 0; i < 10; i = i + 1) {
    g = g + i;
    h[i & 3] = i;
    p[i & 1] = i;
  }
  free(p);
  print_int(g);
  return 0;
}
|}

let record_tiny () =
  match Ebp_trace.Recorder.record_source tiny_source with
  | Ok (_, trace, _) -> trace
  | Error msg -> Alcotest.failf "record failed: %s" msg

let test_real_program () =
  let trace = record_tiny () in
  let index = Write_index.build ~page_sizes trace in
  let run s =
    let q = parse_ok s in
    match Query.check_engines ~index trace q with
    | Ok { raw; _ } -> raw
    | Error msg -> Alcotest.fail msg
  in
  (* Engine agreement on every shape, plus a few pinned facts. *)
  let queries =
    [
      "count";
      "count distinct pc";
      "count distinct word";
      "count where live(global:g)";
      "count where live(local:main.i)";
      "count where live(locals:main)";
      "count where live(heapfn:main)";
      "count where not live(global:g)";
      "count where live(global:g) and time in [0,50]";
      "count group by object top 3";
      "count group by pc";
      "count bucket by 16";
    ]
  in
  List.iter (fun s -> ignore (run s)) queries;
  (* g is written 10 times in the loop; the engines agree and the count
     is exactly the writes landing in g's live window. *)
  (match run "count where live(global:g)" with
  | Qresult.Count n -> Alcotest.(check int) "writes to g" 10 n
  | _ -> Alcotest.fail "expected a count");
  (* Rendered output is built from the shared path: both formats render
     without raising and the table mentions the key column. *)
  let q = parse_ok "count group by object top 2" in
  let { Query.raw; _ } = Query.run ~engine:Query.Indexed ~index trace q in
  let table = Query.render ~format:Query.Table trace q raw in
  Alcotest.(check bool) "table has object column" true
    (String.length table > 0
    && String.sub table 0 6 = "object");
  let nd = Query.render ~format:Query.Ndjson trace q raw in
  Alcotest.(check bool) "ndjson parses" true
    (List.for_all
       (fun line ->
         match Ebp_obs.Json.of_string line with Ok _ -> true | Error _ -> false)
       (String.split_on_char '\n' (String.trim nd)))

(* A window that starts past the first block lets the scan skip the
   blocks of writes before it. Installs and removes sit in blocks 1 and
   3 only, so some skipped blocks follow live windows and some visited
   ones hold no writes in the window; the windows start and end inside,
   at and past block edges. *)
let test_window_skip () =
  let be = Trace.block_events in
  let n = (5 * be) + 123 in
  let b = Trace.Builder.create () in
  for i = 0 to n - 1 do
    let obj, range = objects.(i / 500 mod Array.length objects) in
    if (i / be) mod 2 = 1 && i mod 500 = 0 then Trace.Builder.add_install b obj range
    else if (i / be) mod 2 = 1 && i mod 500 = 250 then Trace.Builder.add_remove b obj range
    else
      let lo = Interval.lo (snd objects.(i mod Array.length objects)) + (i mod 3) in
      Trace.Builder.add_write b (iv lo (lo + 2)) ~pc:(i mod 13)
  done;
  let trace = Trace.Builder.finish b in
  let index = Write_index.build ~page_sizes trace in
  List.iter
    (fun (a, z) ->
      List.iter
        (fun tail ->
          let s = Printf.sprintf "count where time in [%d,%d]%s" a z tail in
          match Query.check_engines ~index trace (parse_ok s) with
          | Ok _ -> ()
          | Error msg -> Alcotest.fail msg)
        [ ""; " group by object"; " and live(global:a)"; " group by pc";
          " bucket by 100"; " and not live(locals:f) bucket by 1000" ])
    [ (be, be + 100); (be + 1, (3 * be) - 1); (2 * be, (3 * be) - 1);
      ((2 * be) + 100, (2 * be) + 3000); ((3 * be) + 7, n + 50);
      ((4 * be) + 1, n); (5 * be, n - 1); (n, n + 10) ]

(* Auto engine selection returns the same raw result as both overrides,
   whatever the planner picks. *)
let prop_auto_matches_overrides =
  QCheck2.Test.make ~name:"auto = indexed = scan" ~count:100
    QCheck2.Gen.(pair trace_gen query_gen)
    (fun (trace, q) ->
      let index = Write_index.build ~page_sizes trace in
      let auto = (Query.run ~engine:Query.Auto ~index trace q).raw in
      let indexed = (Query.run ~engine:Query.Indexed ~index trace q).raw in
      let scan = (Query.run ~engine:Query.Scan trace q).raw in
      Qresult.equal auto indexed && Qresult.equal indexed scan)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "query"
    [
      ( "parser",
        [
          Alcotest.test_case "canonical round-trip" `Quick test_parse_canonical;
          Alcotest.test_case "sugar" `Quick test_parse_sugar;
          Alcotest.test_case "diagnostics" `Quick test_parse_errors;
          Alcotest.test_case "caret" `Quick test_error_caret;
          qtest prop_print_parse_round_trip;
          qtest prop_shrink_candidates_well_typed;
        ] );
      ("pos-set", [ qtest prop_pos_set_algebra ]);
      ( "engines",
        [
          qtest prop_engines_agree;
          qtest prop_auto_matches_overrides;
          Alcotest.test_case "real program" `Quick test_real_program;
          Alcotest.test_case "window skips blocks" `Quick test_window_skip;
        ] );
    ]
