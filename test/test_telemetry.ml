(* Tests for the pr_telemetry layer: log2-bucket histogram quantiles
   against a sorted-array oracle, merge algebra (commutative,
   associative, equivalent to recording into one histogram), JSON
   round-trips for histograms and registry snapshots, snapshot
   diff/merge semantics, the flight-recorder ring contract, the
   benchmark row shape and its gate, a fuzz of the parsers of outside
   input, allocation accounting, and
   the daemon acceptance criterion: estimated p50/p99 within one log2
   bucket of the exact sorted-list percentiles of the same session. *)

module J = Pr_util.Json
module Stats = Pr_util.Stats
module Hist = Pr_telemetry.Hist
module Reg = Pr_telemetry.Registry
module Trace = Pr_obs.Trace
module Gate = Pr_telemetry.Gate
module Alloc = Pr_telemetry.Alloc
module Daemon = Pr_serve.Daemon

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let of_list xs =
  let h = Hist.create () in
  List.iter (Hist.record h) xs;
  h

(* --- histogram buckets ---------------------------------------------- *)

let test_bucket_edges () =
  check_int "0 -> bucket 0" 0 (Hist.bucket_index 0.0);
  check_int "negative -> bucket 0" 0 (Hist.bucket_index (-7.0));
  check_int "nan -> bucket 0" 0 (Hist.bucket_index Float.nan);
  check_int "0.3 -> bucket 0" 0 (Hist.bucket_index 0.3);
  check_int "1 -> bucket 0" 0 (Hist.bucket_index 1.0);
  check_int "2 -> bucket 1" 1 (Hist.bucket_index 2.0);
  check_int "3 -> bucket 1" 1 (Hist.bucket_index 3.0);
  check_int "1024 -> bucket 10" 10 (Hist.bucket_index 1024.0);
  check_int "huge -> last bucket" (Hist.num_buckets - 1)
    (Hist.bucket_index 1e30);
  check_int "inf -> last bucket" (Hist.num_buckets - 1)
    (Hist.bucket_index Float.infinity);
  (* Every bucket's own lower bound must land in that bucket. *)
  for i = 0 to Hist.num_buckets - 1 do
    let lo, hi = Hist.bucket_bounds i in
    check_int "lower bound in own bucket" i (Hist.bucket_index lo);
    if i < Hist.num_buckets - 1 then
      check_int "upper bound in next bucket" (i + 1) (Hist.bucket_index hi)
  done

let test_exact_accounting () =
  let xs = [ 3.0; 100.0; 0.5; 7e6; 3.5 ] in
  let h = of_list xs in
  check_int "count" 5 (Hist.count h);
  Alcotest.(check (float 1e-9)) "sum" (List.fold_left ( +. ) 0.0 xs) (Hist.sum h);
  Alcotest.(check (float 1e-9)) "min" 0.5 (Hist.min_value h);
  Alcotest.(check (float 1e-9)) "max" 7e6 (Hist.max_value h)

(* --- quantiles vs the sorted-array oracle --------------------------- *)

(* The estimate must land within one log2 bucket of the exact order
   statistic at rank floor(p/100 * (count-1)) — the guarantee the
   .mli declares. *)
let sample = QCheck.(list_of_size Gen.(int_range 1 300) (float_bound_inclusive 1e12))

let quantile_within_one_bucket =
  QCheck.Test.make ~name:"quantile within one bucket of order statistic"
    ~count:200
    QCheck.(pair sample (int_bound 100))
    (fun (xs, p) ->
      let p = float_of_int p in
      let h = of_list xs in
      let sorted = List.sort compare xs in
      let rank = p /. 100.0 *. float_of_int (List.length xs - 1) in
      let exact = List.nth sorted (int_of_float rank) in
      abs (Hist.bucket_index (Hist.quantile h p) - Hist.bucket_index exact) <= 1)

let quantile_clamped_and_monotone =
  QCheck.Test.make ~name:"quantile stays in [min,max] and is monotone"
    ~count:200 sample (fun xs ->
      let h = of_list xs in
      let qs = List.map (fun p -> Hist.quantile h (float_of_int p)) [ 0; 25; 50; 75; 90; 99; 100 ] in
      List.for_all (fun q -> q >= Hist.min_value h && q <= Hist.max_value h) qs
      && fst
           (List.fold_left
              (fun (mono, prev) q -> (mono && q >= prev, q))
              (true, -1.0) qs))

let test_quantile_empty () =
  let h = Hist.create () in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Hist.quantile h 50.0);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Hist.mean h)

(* --- merge algebra --------------------------------------------------- *)

let merged a b =
  let m = Hist.copy a in
  Hist.merge ~into:m b;
  m

let merge_commutes =
  QCheck.Test.make ~name:"merge commutes" ~count:200
    QCheck.(pair sample sample)
    (fun (xs, ys) ->
      let a = of_list xs and b = of_list ys in
      Hist.equal (merged a b) (merged b a))

let merge_associates =
  QCheck.Test.make ~name:"merge associates" ~count:200
    QCheck.(triple sample sample sample)
    (fun (xs, ys, zs) ->
      let a = of_list xs and b = of_list ys and c = of_list zs in
      Hist.equal (merged (merged a b) c) (merged a (merged b c)))

let merge_equals_single =
  QCheck.Test.make ~name:"merge of shards = one histogram" ~count:200
    QCheck.(pair sample sample)
    (fun (xs, ys) ->
      let a = of_list xs and b = of_list ys in
      Hist.equal (merged a b) (of_list (xs @ ys)))

let hist_json_roundtrip =
  QCheck.Test.make ~name:"histogram JSON round-trip" ~count:200 sample
    (fun xs ->
      let h = of_list xs in
      match Hist.of_json (Hist.to_json h) with
      | Ok h' -> Hist.equal h h'
      | Error _ -> false)

let test_diff () =
  let before = of_list [ 2.0; 100.0 ] in
  let after = of_list [ 2.0; 100.0; 5000.0; 3.0 ] in
  let d = Hist.diff ~after ~before in
  check_int "diff count" 2 (Hist.count d);
  Alcotest.(check (float 1e-6)) "diff sum" 5003.0 (Hist.sum d);
  check_bool "diff buckets are the delta" true
    (Hist.buckets d
    = [ (Hist.bucket_index 3.0, 1); (Hist.bucket_index 5000.0, 1) ])

(* --- registry -------------------------------------------------------- *)

let test_registry_handles () =
  let r = Reg.create () in
  let c = Reg.counter r "a.count" in
  Reg.inc c;
  Reg.add c 4;
  check_int "counter" 5 (Reg.count c);
  (* Idempotent registration: same handle back. *)
  Reg.inc (Reg.counter r "a.count");
  check_int "same handle" 6 (Reg.count c);
  let g = Reg.gauge r "b.gauge" in
  Reg.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Reg.get g);
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Registry: \"a.count\" already registered as a counter, wanted a gauge")
    (fun () -> ignore (Reg.gauge r "a.count"))

let snapshot_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n, v) (n', v') ->
         n = n'
         &&
         match (v, v') with
         | Reg.Counter x, Reg.Counter y -> x = y
         | Reg.Gauge x, Reg.Gauge y -> x = y
         | Reg.Histogram x, Reg.Histogram y -> Hist.equal x y
         | _ -> false)
       a b

let populated () =
  let r = Reg.create () in
  Reg.add (Reg.counter r "c.events") 7;
  Reg.set (Reg.gauge r "g.depth") 3.0;
  Hist.record (Reg.histogram r "h.lat") 250.0;
  Hist.record (Reg.histogram r "h.lat") 9000.0;
  r

let test_snapshot_roundtrip () =
  let snap = Reg.snapshot (populated ()) in
  check_int "three metrics" 3 (List.length snap);
  check_bool "sorted by name" true
    (List.map fst snap = List.sort compare (List.map fst snap));
  match Reg.snapshot_of_json (Reg.snapshot_to_json snap) with
  | Error e -> Alcotest.fail e
  | Ok snap' -> check_bool "round-trip equal" true (snapshot_equal snap snap')

let test_snapshot_diff_merge () =
  let r = populated () in
  let before = Reg.snapshot r in
  Reg.add (Reg.counter r "c.events") 5;
  Reg.set (Reg.gauge r "g.depth") 9.0;
  Hist.record (Reg.histogram r "h.lat") 42.0;
  let after = Reg.snapshot r in
  let d = Reg.diff ~after ~before in
  check_bool "counter delta" true
    (List.assoc "c.events" d = Reg.Counter 5);
  check_bool "gauge takes after" true (List.assoc "g.depth" d = Reg.Gauge 9.0);
  (match List.assoc "h.lat" d with
  | Reg.Histogram h -> check_int "hist delta count" 1 (Hist.count h)
  | _ -> Alcotest.fail "h.lat not a histogram");
  (* Merging the diff back onto [before] recovers [after] — up to
     histogram min/max, which [Hist.diff] only knows at bucket
     resolution. *)
  let recovered = Result.get_ok (Reg.merge before d) in
  check_bool "before + diff = after" true
    (List.for_all2
       (fun (n, v) (n', v') ->
         n = n'
         &&
         match (v, v') with
         | Reg.Histogram x, Reg.Histogram y ->
           Hist.buckets x = Hist.buckets y && Hist.count x = Hist.count y
         | _ -> v = v')
       recovered after);
  match Reg.merge before [ ("c.events", Reg.Gauge 1.0) ] with
  | Error e ->
    Alcotest.(check string) "clash named" "kind clash on \"c.events\" (counter vs gauge)" e
  | Ok _ -> Alcotest.fail "kind clash merged"

let test_prometheus () =
  let text = Reg.to_prometheus (Reg.snapshot (populated ())) in
  List.iter
    (fun needle ->
      let ok =
        let n = String.length needle and m = String.length text in
        let rec scan i = i + n <= m && (String.sub text i n = needle || scan (i + 1)) in
        scan 0
      in
      check_bool ("exposition mentions " ^ needle) true ok)
    [ "c_events 7"; "g_depth 3"; "h_lat_count 2"; "le=\"+Inf\"" ]

(* --- flight recorder ------------------------------------------------- *)

let post_mortem_events ring =
  Result.get_ok
    (J.to_list (Option.get (J.member "events" (Trace.post_mortem ~reason:"r" ring))))

let test_flight_ring () =
  let f = Trace.create ~policy:Trace.Overwrite_oldest ~capacity:4 () in
  for i = 1 to 6 do
    Trace.instant f ~ts:(float_of_int i) ~tid:0 (Printf.sprintf "e%d" i)
  done;
  check_int "total counts everything" 6 (Trace.length f + Trace.dropped f);
  check_int "length capped" 4 (Trace.length f);
  check_bool "oldest overwritten, order kept" true
    (List.map (fun e -> Result.get_ok (J.string_member "name" e)) (post_mortem_events f)
    = [ "e3"; "e4"; "e5"; "e6" ]);
  Trace.instant Trace.disabled ~ts:9.0 ~tid:0 "ignored";
  check_int "disabled is a no-op" 0 (Trace.length Trace.disabled + Trace.dropped Trace.disabled)

let test_flight_dump () =
  let f = Trace.create ~policy:Trace.Overwrite_oldest ~capacity:8 () in
  Trace.note f ~ts:1.0 ~tid:3 ~detail:"AD 3" "node.down";
  Trace.counter f ~ts:2.0 ~tid:0 ~value:17.0 "queue";
  let path = Filename.temp_file "flight" ".json" in
  Trace.write_post_mortem f ~reason:"test dump" ~path
    ~metrics:(Reg.snapshot_to_json (Reg.snapshot (populated ())));
  let ic = open_in path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match J.parse doc with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Alcotest.(check string) "document" "post-mortem"
      (Result.get_ok (J.string_member "document" j));
    Alcotest.(check string) "reason" "test dump"
      (Result.get_ok (J.string_member "reason" j));
    let events = Result.get_ok (J.to_list (Option.get (J.member "events" j))) in
    check_int "events" 2 (List.length events);
    check_bool "events pass the shared validator" true
      (Result.is_ok (Trace.validate_events events));
    check_bool "detail exported" true
      (J.member "args" (List.hd events) = Some (J.Obj [ ("detail", J.String "AD 3") ]));
    check_bool "metrics embedded" true (J.member "metrics" j <> None)

(* --- regression gate ------------------------------------------------- *)

let row ?(layer = "serve") ?(config = [ ("target_ads", J.Int 14) ]) exact band =
  { Gate.layer; kernel = "daemon"; config; exact; band; cores = 1 }

let fails ~baseline ~current =
  List.map
    (fun (o : Gate.outcome) -> o.field)
    (Gate.failures (Gate.compare_row ~tolerance:0.5 ~baseline ~current))

let test_gate_bands () =
  let baseline =
    row [ ("queries", J.Int 100); ("hit_rate", J.Float 0.25) ] [ ("qps", J.Float 50.0) ]
  in
  check_bool "identical row passes" true (fails ~baseline ~current:baseline = []);
  check_bool "band drift within tolerance passes" true
    (fails ~baseline
       ~current:
         (row [ ("queries", J.Int 100); ("hit_rate", J.Float 0.25) ] [ ("qps", J.Float 70.0) ])
    = []);
  check_bool "exact and band drift both fail" true
    (fails ~baseline
       ~current:
         (row [ ("queries", J.Int 101); ("hit_rate", J.Float 0.25) ] [ ("qps", J.Float 200.0) ])
    = [ "queries"; "qps" ]);
  check_bool "an exact float must match as written" true
    (fails ~baseline
       ~current:
         (row
            [ ("queries", J.Int 100); ("hit_rate", J.Float (0.25 +. 1e-9)) ]
            [ ("qps", J.Float 50.0) ])
    = [ "hit_rate" ]);
  check_bool "a field missing from the current row fails" true
    (fails ~baseline ~current:(row [ ("queries", J.Int 100) ] []) = [ "hit_rate"; "qps" ]);
  (* The baseline is the spec: fields only the current row has are not
     compared, and a field the producer moved to the band still gates
     exactly against an exact baseline. *)
  check_bool "baseline decides" true
    (fails ~baseline
       ~current:
         (row [ ("queries", J.Int 100); ("extra", J.Int 7) ]
            [ ("hit_rate", J.Float 0.25); ("qps", J.Float 50.0) ])
    = [])

let parse_doc text = Result.bind (J.parse text) Gate.document_of_json

let test_gate_schema () =
  let rows =
    [
      row [ ("queries", J.Int 1) ] [ ("qps", J.Float 2.5) ];
      row ~layer:"kernel" [] [ ("ns_per_op", J.Int 3) ];
    ]
  in
  check_bool "document round-trips" true
    (parse_doc (J.to_string (Gate.document_json ~benchmark:"b" rows)) = Ok ("b", rows));
  check_bool "context members are not read" true
    (parse_doc
       (J.to_string (Gate.document_json ~benchmark:"b" ~context:[ ("x", J.Null) ] rows))
    = Ok ("b", rows));
  let rejects name ?(expect = "") text =
    match parse_doc text with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e ->
        if expect <> "" then Alcotest.(check string) name expect e
  in
  let doc r = Printf.sprintf "{\"benchmark\": \"b\", \"results\": [%s]}" r in
  let good =
    "\"layer\": \"serve\", \"kernel\": \"k\", \"config\": {}, \"exact\": {}, \
     \"band\": {}"
  in
  ignore (Result.get_ok (parse_doc (doc ("{" ^ good ^ ", \"cores\": 1}"))));
  rejects "non-numeric exact value"
    ~expect:"results row 0: exact \"queries\" is not a number"
    (doc
       "{\"layer\": \"serve\", \"kernel\": \"k\", \"config\": {}, \"exact\": \
        {\"queries\": \"3\"}, \"band\": {}, \"cores\": 1}");
  rejects "layer off the ladder"
    (doc
       "{\"layer\": \"engine\", \"kernel\": \"k\", \"config\": {}, \"exact\": {}, \
        \"band\": {}, \"cores\": 1}");
  rejects "zero cores" (doc ("{" ^ good ^ ", \"cores\": 0}"));
  rejects "missing cores" (doc ("{" ^ good ^ "}"));
  rejects "member outside the shape" (doc ("{" ^ good ^ ", \"cores\": 1, \"qps\": 1}"));
  rejects "field in exact and band"
    (doc
       "{\"layer\": \"serve\", \"kernel\": \"k\", \"config\": {}, \"exact\": \
        {\"q\": 1}, \"band\": {\"q\": 1}, \"cores\": 1}");
  rejects "two rows, one key"
    ~expect:"results rows 0 and 1 share layer, kernel and config"
    (doc ("{" ^ good ^ ", \"cores\": 1}, {" ^ good ^ ", \"cores\": 2}"));
  rejects "empty results" "{\"benchmark\": \"b\", \"results\": []}";
  rejects "no identity" "{\"results\": []}";
  rejects "not an object" "[1, 2]"

let test_gate_keys () =
  let a = row ~config:[ ("target_ads", J.Int 14); ("plan", J.String "none") ] [] [] in
  let b = row ~config:[ ("plan", J.String "none"); ("target_ads", J.Float 14.0) ] [] [] in
  check_bool "member order and number spelling do not matter" true (Gate.same_key a b);
  check_bool "config values do" false
    (Gate.same_key a (row ~config:[ ("target_ads", J.Int 15); ("plan", J.String "none") ] [] []));
  check_bool "layer does" false (Gate.same_key a { a with Gate.layer = "kernel" })

(* --- outside input: fuzz --------------------------------------------- *)

(* Random strings and single-byte mutations or truncations of the
   committed benchmark documents: each parser of outside input returns
   Ok or Error, never raises. *)
let committed =
  List.map
    (fun f -> In_channel.with_open_bin (Filename.concat ".." f) In_channel.input_all)
    [ "BENCH_synthesis.json"; "BENCH_serve.json"; "BENCH_campaign.json" ]

let fuzz_input =
  let open QCheck.Gen in
  let mutated =
    oneofl committed >>= fun doc ->
    int_bound (String.length doc - 1) >>= fun at ->
    oneof
      [
        map (fun c -> String.mapi (fun i x -> if i = at then c else x) doc) char;
        return (String.sub doc 0 at);
      ]
  in
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%d bytes: %S" (String.length s) (String.sub s 0 (min 80 (String.length s))))
    (oneof [ string; string_printable; mutated ])

let never_raises name f =
  QCheck.Test.make ~name ~count:600 fuzz_input (fun s ->
      match f s with Ok _ | Error _ -> true | exception _ -> false)

let fuzz_tests =
  [
    never_raises "Json.parse" J.parse;
    never_raises "Gate.document_of_json" (fun s ->
        Result.bind (J.parse s) Gate.document_of_json);
    never_raises "Plan.of_string" Pr_faults.Plan.of_string;
  ]

let test_committed_parse () =
  List.iter
    (fun doc -> check_bool "committed document parses" true (Result.is_ok (parse_doc doc)))
    committed

(* --- allocation accounting ------------------------------------------ *)

let test_alloc_words () =
  let sink = ref [] in
  let w = Alloc.words (fun () -> sink := List.init 1000 Fun.id) in
  check_bool "allocating thunk measured > 1000 words" true (w > 1000.0);
  ignore (Sys.opaque_identity !sink);
  let per = Alloc.words_per ~ops:10 (fun () -> sink := List.init 1000 Fun.id) in
  check_bool "per-op divides" true (per < w);
  let r = Reg.create () in
  Alloc.sample ~registry:r ();
  check_bool "gc gauges published" true
    (List.mem_assoc "gc.minor_words" (Reg.snapshot r))

(* --- daemon acceptance: estimates vs exact sorted-list values -------- *)

let test_daemon_one_bucket () =
  let cfg =
    {
      Daemon.default_config with
      Daemon.seed = 5;
      target_ads = 30;
      duration = 8.0;
      record_exact = true;
    }
  in
  let report = Daemon.run cfg in
  check_bool "session answered queries" true (report.Daemon.answered > 0);
  let exact = report.Daemon.exact_latencies in
  check_int "one exact latency per histogram record"
    (Hist.count report.Daemon.latency)
    (List.length exact);
  List.iter
    (fun p ->
      let est = Hist.quantile report.Daemon.latency p in
      let truth = Stats.percentile exact p in
      check_bool
        (Printf.sprintf "p%.0f estimate within one log2 bucket" p)
        true
        (abs (Hist.bucket_index est - Hist.bucket_index truth) <= 1))
    [ 50.0; 90.0; 99.0 ];
  (* The report's headline figures are exactly the histogram estimates. *)
  Alcotest.(check (float 0.0)) "p50 is the histogram estimate"
    (Hist.quantile report.Daemon.latency 50.0)
    report.Daemon.p50_ns;
  (* Off by default: the serving loop keeps no per-query list. *)
  let plain = Daemon.run { cfg with Daemon.record_exact = false } in
  check_int "no exact latencies unless asked" 0
    (List.length plain.Daemon.exact_latencies);
  check_int "identical session either way" report.Daemon.queries
    plain.Daemon.queries

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "telemetry"
    [
      ( "hist",
        [
          Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
          Alcotest.test_case "exact accounting" `Quick test_exact_accounting;
          Alcotest.test_case "empty quantile" `Quick test_quantile_empty;
          Alcotest.test_case "diff" `Quick test_diff;
        ]
        @ qcheck
            [
              quantile_within_one_bucket;
              quantile_clamped_and_monotone;
              merge_commutes;
              merge_associates;
              merge_equals_single;
              hist_json_roundtrip;
            ] );
      ( "registry",
        [
          Alcotest.test_case "handles" `Quick test_registry_handles;
          Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "diff and merge" `Quick test_snapshot_diff_merge;
          Alcotest.test_case "prometheus" `Quick test_prometheus;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring" `Quick test_flight_ring;
          Alcotest.test_case "dump" `Quick test_flight_dump;
        ] );
      ( "gate",
        [
          Alcotest.test_case "tolerance bands" `Quick test_gate_bands;
          Alcotest.test_case "row schema" `Quick test_gate_schema;
          Alcotest.test_case "row keys" `Quick test_gate_keys;
          Alcotest.test_case "committed documents parse" `Quick test_committed_parse;
        ] );
      ("fuzz", List.map QCheck_alcotest.to_alcotest fuzz_tests);
      ( "alloc",
        [ Alcotest.test_case "words" `Quick test_alloc_words ] );
      ( "daemon",
        [
          Alcotest.test_case "one-bucket acceptance" `Quick
            test_daemon_one_bucket;
        ] );
    ]
