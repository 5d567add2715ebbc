(* bench_check BASELINE [CURRENT]: the benchmark document gate.

   With one file, check that it is a well-formed benchmark document
   (Pr_telemetry.Gate's one row shape). With two, check both and gate
   CURRENT against BASELINE: every baseline row needs a current row
   with the same layer, kernel and config, whose exact fields match
   and whose band fields stay within Gate.default_tolerance.

   Exit codes: 0 ok, 1 a baseline row is missing or out of tolerance,
   2 usage or a malformed document (one line on stderr). *)

module Gate = Pr_telemetry.Gate

let usage_error fmt =
  Printf.ksprintf (fun s -> prerr_endline ("bench_check: " ^ s); exit 2) fmt

let read path =
  match Gate.read path with Ok (_, rows) -> rows | Error e -> usage_error "%s: %s" path e

let gate ~baseline ~current =
  let base_rows = read baseline and cur_rows = read current in
  let failed =
    List.fold_left
      (fun failed (b : Gate.row) ->
        match List.find_opt (Gate.same_key b) cur_rows with
        | None ->
          Printf.printf "%s: no row for %s\n" current (Gate.describe b);
          failed + 1
        | Some c ->
          let bad =
            Gate.failures
              (Gate.compare_row ~tolerance:Gate.default_tolerance ~baseline:b ~current:c)
          in
          if bad <> [] then Printf.printf "%s:\n" (Gate.describe b);
          List.iter (Format.printf "  %a@." Gate.pp_outcome) bad;
          failed + List.length bad)
      0 base_rows
  in
  if failed > 0 then begin
    Printf.printf "bench_check: FAIL (%d field(s) or row(s) off %s)\n" failed baseline;
    exit 1
  end;
  Printf.printf "bench_check: %s: %d row(s) within tolerance of %s\n" current
    (List.length base_rows) baseline

let () =
  match Array.to_list Sys.argv with
  | [ _; file ] ->
    Printf.printf "bench_check: %s: %d row(s) well-formed\n" file (List.length (read file))
  | [ _; baseline; current ] -> gate ~baseline ~current
  | _ -> usage_error "usage: bench_check BASELINE.json [CURRENT.json]"
