(* Catalog drift: the metric catalogs in docs/OBSERVABILITY.md and
   docs/SERVICE.md must name only metrics the code registers, with the
   kind it registers them as, and the fault-point catalog in
   docs/ROBUSTNESS.md must name exactly the registered points. This
   executable is linked with -linkall, so every library module's
   top-level registrations have run before the checks. *)

module Metrics = Ebp_obs.Metrics

let doc name = In_channel.with_open_bin ("../docs/" ^ name) In_channel.input_all

(* The rows of every markdown table whose header's first cell is
   [header] (case-insensitive), as lists of trimmed cells. *)
let table_rows ~header text =
  let cells line =
    match String.split_on_char '|' line with
    | _ :: rest -> List.map String.trim (List.filteri (fun i _ -> i < List.length rest - 1) rest)
    | [] -> []
  in
  let is_row line = String.length line > 0 && line.[0] = '|' in
  let rec go acc in_table = function
    | [] -> List.rev acc
    | line :: rest when not (is_row line) -> go acc false rest
    | line :: rest when in_table ->
        let row = cells line in
        if List.for_all (fun c -> String.for_all (fun ch -> ch = '-' || ch = ':') c) row
        then go acc true rest
        else go (row :: acc) true rest
    | line :: rest -> (
        match cells line with
        | first :: _ when String.lowercase_ascii first = header -> go acc true rest
        | _ -> go acc false rest)
  in
  go [] false (String.split_on_char '\n' text)

(* The backticked names of a cell. A name written relative to the one
   before it ("`trace_cache.hits` / `.misses`") is completed from it. *)
let names_of_cell cell =
  let pieces = String.split_on_char '`' cell in
  let quoted = List.filteri (fun i _ -> i mod 2 = 1) pieces in
  List.rev
    (List.fold_left
       (fun acc name ->
         match acc with
         | prev :: _ when String.length name > 0 && name.[0] = '.' ->
             (String.sub prev 0 (String.rindex prev '.') ^ name) :: acc
         | _ -> name :: acc)
       [] quoted)

(* (name, documented kind) for every metric of a catalog. A kind cell
   may list one kind per name ("counter, gauge"). Spans and templated
   names ("serve.tenant.<t>.latency_ns") register as they are first
   used, so the registry cannot vouch for them up front. *)
let catalog_metrics text =
  List.concat_map
    (fun row ->
      match row with
      | names :: kinds :: _ ->
          let names = names_of_cell names in
          let kinds = List.map String.trim (String.split_on_char ',' kinds) in
          List.mapi
            (fun i name ->
              (name, if List.length kinds = List.length names then List.nth kinds i else List.hd kinds))
            names
          |> List.filter (fun (name, kind) ->
                 kind <> "span" && not (String.contains name '<'))
      | _ -> [])
    (table_rows ~header:"metric" text)

let test_metric_catalogs () =
  let registered = Metrics.registered () in
  List.iter
    (fun file ->
      let listed = catalog_metrics (doc file) in
      if listed = [] then Alcotest.failf "%s: no metric catalog found" file;
      List.iter
        (fun (name, kind) ->
          match List.assoc_opt name registered with
          | None -> Alcotest.failf "%s names %s, which nothing registers" file name
          | Some k when k <> kind ->
              Alcotest.failf "%s calls %s a %s; it is registered as a %s" file
                name kind k
          | Some _ -> ())
        listed)
    [ "OBSERVABILITY.md"; "SERVICE.md" ]

let test_fault_catalog () =
  let listed =
    List.concat_map
      (function cell :: _ -> names_of_cell cell | [] -> [])
      (table_rows ~header:"point" (doc "ROBUSTNESS.md"))
    |> List.sort_uniq String.compare
  in
  (* Fault.point registers a [fault.<point>] counter for each point. *)
  let points =
    List.filter_map
      (fun (name, _) ->
        if String.starts_with ~prefix:"fault." name then
          Some (String.sub name 6 (String.length name - 6))
        else None)
      (Metrics.registered ())
  in
  Alcotest.(check bool) "some points registered" true (points <> []);
  Alcotest.(check (list string)) "the catalog lists every registered point"
    points listed

let () =
  Alcotest.run "catalog"
    [
      ( "docs",
        [
          Alcotest.test_case "metric catalogs name registered metrics" `Quick
            test_metric_catalogs;
          Alcotest.test_case "fault catalog matches the registered points"
            `Quick test_fault_catalog;
        ] );
    ]
