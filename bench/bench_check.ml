(* Well-formedness check for benchmark JSON documents: parses with the
   in-repo JSON reader, dispatches on the top-level "benchmark"
   identity, and validates the schema the tracking tooling relies on.

   - "route_synthesis_scaling" (bench/main.exe synth --json): identity
     fields, a non-empty Spf scaling table, the restrictive-policy
     synthesis section, and the delta-SPF / hierarchical-synthesis
     section, each with positive timings on every row.
   - "route_server_serving" (prx serve --out): per-size serving rows
     with positive load/latency/diagram figures and zero
     admission-agreement failures.

   Run from dune's runtest alias over both the smoke outputs and the
   committed BENCH_synthesis.json / BENCH_serve.json baselines. *)

module J = Pr_util.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let number = function
  | J.Int v -> Some (float_of_int v)
  | J.Float v -> Some v
  | _ -> None

let check_rows file ~section ~fields rows =
  if rows = [] then fail "%s: %s: empty results" file section;
  List.iteri
    (fun i row ->
      List.iter
        (fun field ->
          match Option.bind (J.member field row) number with
          | Some v when v > 0.0 -> ()
          | Some _ -> fail "%s: %s[%d]: non-positive %S" file section i field
          | None -> fail "%s: %s[%d]: missing or non-numeric %S" file section i field)
        fields)
    rows

let rows_of file ~section doc name =
  match Option.bind (J.member name doc) (fun v -> Result.to_option (J.to_list v)) with
  | Some l -> l
  | None -> fail "%s: %s: missing %S list" file section name

let check_synthesis_file file doc =
  (match J.member "kernel" doc with
  | Some (J.String _) -> ()
  | _ -> fail "%s: missing \"kernel\"" file);
  check_rows file ~section:"results"
    ~fields:
      [ "target_ads"; "ads"; "links"; "sources"; "reps"; "ns_per_op"; "live_words" ]
    (rows_of file ~section:"top" doc "results");
  let policy =
    match J.member "policy_synthesis" doc with
    | Some p -> p
    | None -> fail "%s: missing \"policy_synthesis\" section" file
  in
  (match J.member "kernel" policy with
  | Some (J.String _) -> ()
  | _ -> fail "%s: policy_synthesis: missing \"kernel\"" file);
  check_rows file ~section:"policy_synthesis.results"
    ~fields:
      [
        "target_ads";
        "ads";
        "links";
        "flows";
        "interpreted_ns_per_route";
        "compiled_ns_per_route";
        "speedup";
      ]
    (rows_of file ~section:"policy_synthesis" policy "results");
  let delta =
    match J.member "delta" doc with
    | Some d -> d
    | None -> fail "%s: missing \"delta\" section" file
  in
  (match J.member "kernel" delta with
  | Some (J.String _) -> ()
  | _ -> fail "%s: delta: missing \"kernel\"" file);
  check_rows file ~section:"delta.results"
    ~fields:
      [
        "target_ads";
        "ads";
        "links";
        "sources";
        "events";
        "full_ns_per_event";
        "incremental_ns_per_event";
        "speedup";
        "clusters";
        "hier_stretch_mean";
        "hier_stretch_max";
        "hier_table_mean";
        "hier_route_ns";
        "pairs";
      ]
    (rows_of file ~section:"delta" delta "results")

(* prx serve --out documents: every row must carry positive sizing,
   throughput, latency and diagram-shape figures (counters that can
   legitimately be zero — hits, evictions, no-routes — are not
   required positive), and the in-run health checks must be clean:
   agreement checks ran and none failed. *)
let check_serve_file file doc =
  (match J.member "kernel" doc with
  | Some (J.String _) -> ()
  | _ -> fail "%s: missing \"kernel\"" file);
  (match J.member "plan" doc with
  | Some (J.String _) -> ()
  | _ -> fail "%s: missing \"plan\"" file);
  let rows = rows_of file ~section:"top" doc "results" in
  check_rows file ~section:"results"
    ~fields:
      [
        "target_ads";
        "ads";
        "links";
        "queries";
        "answered";
        "qps";
        "p50_ns";
        "p99_ns";
        "admit_ns";
        "spec_admit_ns";
        "admit_probes";
        "build_ns";
        "rebuilds";
        "rebuilt_ads";
        "diagram_nodes";
        "diagram_preds";
        "agreement_checks";
      ]
    rows;
  List.iteri
    (fun i row ->
      (match Option.bind (J.member "agreement_failures" row) number with
      | Some 0.0 -> ()
      | Some v -> fail "%s: results[%d]: %g admission disagreements" file i v
      | None -> fail "%s: results[%d]: missing \"agreement_failures\"" file i);
      match Option.bind (J.member "handle_hit_rate" row) number with
      | Some v when v >= 0.0 && v <= 1.0 -> ()
      | Some v -> fail "%s: results[%d]: handle_hit_rate %g outside [0,1]" file i v
      | None -> fail "%s: results[%d]: missing \"handle_hit_rate\"" file i)
    rows

let check_file file =
  let doc =
    match J.parse (read_file file) with
    | Ok doc -> doc
    | Error e -> fail "%s: parse error: %s" file e
  in
  match J.member "benchmark" doc with
  | Some (J.String "route_synthesis_scaling") -> check_synthesis_file file doc
  | Some (J.String "route_server_serving") -> check_serve_file file doc
  | Some (J.String other) -> fail "%s: unknown \"benchmark\" identity %S" file other
  | _ -> fail "%s: missing \"benchmark\" identity" file

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then fail "usage: bench_check FILE.json ...";
  List.iter check_file files;
  Printf.printf "bench_check: %d file(s) well-formed\n" (List.length files)
