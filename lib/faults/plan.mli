(** Deterministic fault schedules.

    A plan is a list of fault actions compiled onto the simulation
    event queue before a run starts (see {!Nemesis.install}). Like
    {!Pr_sim.Churn}, every action schedules a bounded number of events,
    so a converge run still terminates: it drains the faults and every
    protocol reaction to them.

    Determinism contract: a plan contains no randomness of its own —
    all draws (which link flaps, which transit AD crashes, which
    messages are delayed) come from the {!Pr_util.Rng.t} handed to the
    nemesis, which chaos runs derive from the run seed under the
    ["faults"] label. Identical (seed, plan) pairs therefore produce
    byte-identical fault schedules, and enabling a plan never perturbs
    the topology/policy/workload streams of the underlying scenario. *)

(** Message faults apply while [from_time <= now <= until_time]. *)
type window = { from_time : float; until_time : float }

type action =
  | Drop of { prob : float; window : window }
      (** lose each message in flight with probability [prob] *)
  | Duplicate of { prob : float; window : window }
      (** deliver a second copy shortly after the first *)
  | Delay of { prob : float; max_extra : float; window : window }
      (** add uniform [\[0, max_extra)] latency, FIFO-clamped per
          directed neighbor pair so channel order is preserved *)
  | Reorder of { prob : float; max_extra : float; window : window }
      (** add latency {e without} the FIFO clamp — deliberate
          reordering *)
  | Crash of { ad : Pr_topology.Ad.id option; at_time : float; down_for : float option }
      (** gateway crash with total state loss at [at_time]; [ad = None]
          picks a random transit AD; restart [down_for] later
          ([None] = never) *)
  | Partition of { at_time : float; heal_after : float option }
      (** cut every up link between a random half of the ADs and the
          rest; heal restores exactly the cut links ([None] = never) *)
  | Flap_storm of { at_time : float; flaps : int; spacing : float }
      (** [flaps] random link failures [spacing] apart, each restored
          one and a half spacings after it went down *)
  | Corrupt of { prob : float; ad : Pr_topology.Ad.id option; window : window }
      (** the attacker AD tampers each update it sends with probability
          [prob] while the window is open (bit-flipped metrics,
          truncated payloads — protocol-specific); [ad = None] picks
          the deterministic attacker transit AD *)
  | Replay of { at_time : float; count : int }
      (** at [at_time] the attacker re-injects the [count] oldest
          updates it previously sent — stale-sequence state *)
  | Forge of { at_time : float; ad : Pr_topology.Ad.id option }
      (** the attacker announces routes its own Policy Terms forbid —
          a route leak / prefix hijack, protocol-specific payload *)
  | Flap_chatter of {
      at_time : float;
      ad : Pr_topology.Ad.id option;
      flaps : int;
      spacing : float;
    }
      (** a pathological neighbor: the attacker oscillates {e one fixed
          adjacency} [flaps] times [spacing] apart — far past the storm
          profile, concentrated so flap damping must engage *)

type t = action list

val default : t
(** The standard robustness gauntlet: FIFO-safe message faults
    (delay + duplicate) over [\[0,40\]], a four-flap storm from t=6, a
    transit-AD crash at t=14 restarting at t=22, and a partition at
    t=30 healing at t=40. Everything heals, so a correct protocol must
    reconverge with zero loop/blackhole violations. Drop and Reorder
    are excluded by design: the model has no retransmission layer, so
    they can break protocols the paper's assumptions (reliable FIFO
    channels) never required to survive — use the ["lossy"] profile to
    explore that regime. *)

val profiles : (string * t) list
(** Named profiles: ["none"], ["default"], ["crash"], ["partition"],
    ["storm"], ["lossy"], and the adversarial ["byzantine"], ["leak"],
    ["chatter"]. *)

val profile : string -> t option

val profile_names : string list

val storm_hold : spacing:float -> float
(** How long a storm flap stays down. *)

val to_string : t -> string
(** Compact spec, e.g.
    ["delay:p=0.25,max=2,until=40;crash:at=14,down=8"]. Round-trips
    through {!of_string}. *)

val of_string : string -> (t, string) result
(** The one plan grammar: a profile name (see {!profiles}),
    [profile:NAME], or a spec of [;]-separated actions, each
    [kind:key=value,...]. An unknown [profile:NAME] is an error
    naming the known profiles.
    Kinds/keys: [drop:p,from,until], [dup:p,from,until],
    [delay:p,max,from,until], [reorder:p,max,from,until],
    [crash:at,down,ad], [partition:at,heal],
    [storm:at,flaps,spacing], [corrupt:p,ad,from,until],
    [replay:at,count], [forge:at,ad], [chatter:at,flaps,spacing,ad].
    Omitted [from]/[until] mean an unbounded window; omitted
    [down]/[heal] mean no recovery; omitted [ad] means a random (or for
    Byzantine actions, the deterministic attacker) transit AD.
    Rejected with a message: probabilities outside [\[0,1\]] (NaN
    included); times, durations, [spacing] and [max] that are negative
    or not finite ([until] alone may be infinite); [flaps] and [count]
    that are not whole numbers >= 0; an [ad] that is not an integer.
    Whether an [ad] exists depends on the internet: see {!check_ads}. *)

val check_ads : t -> n:int -> (unit, string) result
(** [Error] with a message when an action names an AD outside
    [\[0, n)], the ADs of an [n]-AD internet. Call it before running
    the plan: {!Nemesis.install} indexes the internet's arrays with
    these ids. *)

val incident_times : t -> float list
(** Sorted, deduplicated times at which the plan changes topology or
    node state (both onset and recovery). The invariant harness probes
    forwarding just after each. *)

val last_incident_time : t -> float
(** When the plan stops interfering: the last topology/node incident or
    bounded message-window close, whichever is later. 0 for plans that
    never stop (unbounded windows count as 0 — reconvergence is then
    undefined anyway). *)

val has_message_faults : t -> bool
(** Whether the plan needs a delivery interposer at all. *)

val has_byzantine : t -> bool
(** Whether the plan contains any Byzantine action (Corrupt / Replay /
    Forge / Flap_chatter) — i.e. whether an attacker AD exists. *)

val grammar_help : string
(** Multi-line summary of the accepted action grammar and profile
    names, for CLI error messages. *)
