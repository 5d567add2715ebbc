(* Verifier for the campaign smoke test (see bin/dune).

   Usage: campaign_check RESULTS.jsonl

   The smoke runs a toy campaign twice — first with one injected
   worker crash and one injected hang, then again to resume — so the
   results file must show: every line well-formed; the crashed and
   timed-out attempts on record; every run's *latest* attempt ok; and
   exactly the completed runs skipped on resume (no id attempted more
   than twice). The summary's totals are gated against the committed
   baseline by bench_check. *)

module J = Pr_util.Json

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("campaign_check: " ^ msg); exit 1) fmt

let () =
  let results =
    match Sys.argv with
    | [| _; r |] -> r
    | _ -> fail "usage: campaign_check RESULTS.jsonl"
  in
  (* 1. Every line parses and carries id + status. *)
  let lines =
    In_channel.with_open_bin results In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let attempts = Hashtbl.create 16 in
  let statuses = ref [] in
  List.iteri
    (fun i line ->
      match J.parse line with
      | Error e -> fail "line %d of %s is not JSON: %s" (i + 1) results e
      | Ok record ->
        let member name =
          match J.string_member name record with
          | Ok v -> v
          | Error e -> fail "line %d of %s: %s" (i + 1) results e
        in
        let id = member "id" and status = member "status" in
        Hashtbl.replace attempts id (1 + Option.value (Hashtbl.find_opt attempts id) ~default:0);
        statuses := status :: !statuses)
    lines;
  (* 2. Fault injection left its trace, and the pool survived it. *)
  if not (List.mem "crashed" !statuses) then fail "no crashed attempt on record";
  if not (List.mem "timed-out" !statuses) then fail "no timed-out attempt on record";
  (* 3. Resume semantics: completed runs were attempted once, the two
     faulted runs exactly twice, and every latest attempt is ok. *)
  Hashtbl.iter
    (fun id n -> if n > 2 then fail "run %s attempted %d times: resume did not skip" id n)
    attempts;
  let retried = Hashtbl.fold (fun _ n acc -> if n = 2 then acc + 1 else acc) attempts 0 in
  if retried <> 2 then fail "%d runs were re-attempted, expected exactly the 2 faulted ones" retried;
  let sink = Pr_campaign.Sink.read ~path:results in
  if sink.Pr_campaign.Sink.malformed <> 0 then
    fail "%d malformed lines in %s" sink.Pr_campaign.Sink.malformed results;
  List.iter
    (fun (id, record) ->
      match J.string_member "status" record with
      | Ok "ok" -> ()
      | Ok s -> fail "latest attempt of %s is %S, not ok" id s
      | Error e -> fail "latest attempt of %s: %s" id e)
    sink.Pr_campaign.Sink.records;
  Printf.printf "campaign_check: %d lines, %d runs, resume ok\n"
    (List.length lines) (Hashtbl.length attempts)
