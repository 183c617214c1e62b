(** The study plan: the one canonical answer to "which variants, with
    how many experiments each".

    A plan is what {!Optimizer.optimize} emits after scoring a history
    lineage, and what every execution path consumes — [Study.run]
    filters its variant list and overrides per-variant experiment
    counts through it, [mt_report --plan] uses it to judge a pruned run
    against a full-suite baseline, and [mt_serve] ships it inside
    daemon submissions.  It replaces the ad-hoc trio of [Options.limit]
    filters, adaptive-controller knobs and per-binary variant selection
    that each binary previously wired up separately.

    Serialised as stable pretty-printed JSON (via {!Mt_obsv.Json}) so
    plans can be committed next to CI baselines and diffed in review. *)

(** The scoring thresholds a plan was derived under — recorded in the
    document so a reviewer can tell {e why} a variant was floored or
    dropped without re-running the optimizer. *)
type knobs = {
  min_runs : int;
      (** lineage length below which nothing is pruned or floored *)
  corr_threshold : float;
      (** |Spearman| at or above which two stable series are redundant *)
  cov_stable : float;  (** pooled CoV at or below which a series is stable *)
  rciw_stable : float;  (** worst-run RCIW at or below which it stays stable *)
  min_experiments : int;  (** the μOpTime-style floor for stable variants *)
}

(** One variant the plan keeps measuring. *)
type keep = {
  variant : string;
  experiments : int option;
      (** [Some n]: measure with exactly [n] experiments (the stable
          floor; under the adaptive controller it acts as the minimum).
          [None]: keep the run's default / adaptive budget. *)
  stable : bool;
  cov : float;  (** pooled within-run CoV across the lineage *)
  rciw : float;  (** worst per-run RCIW across the lineage *)
  trend : string;  (** {!Mt_stats.Trend.classification_to_string} *)
}

(** One variant the plan stops measuring, and who answers for it. *)
type drop = {
  variant : string;
  canary : string;
      (** the kept variant whose verdict this one inherits *)
  correlation : float;  (** Spearman between the two median series *)
}

type t = {
  schema : int;
  created_at : float;
  history_dir : string;  (** the archive the plan was derived from *)
  runs : int;  (** lineage length scored *)
  kernel_name : string;
  kernel_hash : string;
  machine_name : string;
  machine_hash : string;
  knobs : knobs;
  keep : keep list;
  drop : drop list;
}

val schema_version : int
(** Current on-disk plan schema (1). *)

(** {1 Queries} *)

val selects : t -> string -> bool
(** [selects t key]: should this variant be measured?  True for kept
    variants {e and} for variants the plan has never seen (a variant
    added after the plan was derived is measured at the default budget
    rather than silently skipped); false only for dropped ones. *)

val experiments_override : t -> string -> int option
(** The planned experiment count for [key], when the plan floors it. *)

val covered_by : t -> canary:string -> drop list
(** The dropped variants answering to [canary]. *)

val find_keep : t -> string -> keep option

val summary : t -> string
(** One line: kept/floored/dropped counts for banners and logs. *)

(** {1 Applying a plan to reports} *)

val filter_snapshot : t -> Mt_obsv.Snapshot.t -> Mt_obsv.Snapshot.t
(** Restrict a snapshot to the variants the plan selects, so a
    full-suite baseline diffs cleanly against a pruned run (dropped
    variants would otherwise show as [Removed]). *)

val expand_diff : t -> Mt_obsv.Diff.t -> Mt_obsv.Diff.t
(** Re-expand a pruned diff to full-suite coverage: every dropped
    variant whose canary's verdict is a believed move ([Regression] or
    [Improvement]) gains a synthesized entry inheriting that verdict,
    delta and band, plus a provenance note naming the canary — so
    [mt_report --plan]'s flagged-variant set matches what the full
    suite would have flagged. *)

(** {1 Serialisation} *)

val to_json : t -> Mt_obsv.Json.t
val of_json : Mt_obsv.Json.t -> (t, string) result

val to_string : t -> string
(** Pretty-printed JSON document (ends in a newline). *)

val of_string : string -> (t, string) result
val save : t -> string -> unit
(** Write {!to_string} through {!Mt_durable.write}.
    @raise Sys_error on a failed write. *)

val load : string -> (t, string) result
