(** Named metrics resolved once to O(1) handles.

    A registry maps dotted metric names ("serve.route_hits") to
    instruments. Registration hashes the name exactly once and returns
    a mutable handle — a counter or gauge is a one-field record, a
    histogram is a {!Hist.t} — so hot paths touch plain memory and
    never see a string. Registering an existing name returns the same
    handle (idempotent); registering it as a different kind raises
    [Invalid_argument].

    Snapshots are immutable, name-sorted copies supporting [diff]
    (what happened between two points), [merge] (combine shards from
    forked campaign workers), JSON round-trip, and Prometheus-style
    text exposition. *)

type t

type counter
type gauge

val create : unit -> t

val default : t
(** The process-global registry all stack instrumentation records
    into. *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> Hist.t

val inc : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val set : gauge -> float -> unit
val get : gauge -> float

val clear : t -> unit
(** Zero every instrument (handles stay valid). *)

(** {1 Snapshots} *)

type value = Counter of int | Gauge of float | Histogram of Hist.t

type snapshot = (string * value) list
(** Sorted by name; histograms are copies. *)

val snapshot : t -> snapshot

val diff : after:snapshot -> before:snapshot -> snapshot
(** Counters and histograms subtract; gauges take the [after] value.
    Names only in [after] pass through unchanged. *)

val merge : snapshot -> snapshot -> (snapshot, string) result
(** Counters and histograms add; gauges keep the max. A metric with
    different kinds in the two snapshots is an [Error] naming it and
    both kinds. *)

val snapshot_to_json : snapshot -> Pr_util.Json.t
(** [{"document": "telemetry-snapshot", "metrics": [...]}]. *)

val snapshot_of_json : Pr_util.Json.t -> (snapshot, string) result

val to_prometheus : snapshot -> string
(** Prometheus text exposition: names sanitized to [[a-zA-Z0-9_]],
    histograms as cumulative [_bucket{le="..."}] series plus [_sum]
    and [_count]. *)
