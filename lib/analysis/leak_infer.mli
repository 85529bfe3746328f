(** Lowering taint findings to microarchitectural channels — the bridge
    between the static analyzer's vocabulary ({!Taint.kind}) and the
    {!Channel.t} the dynamic {!Mi6_obs.Audit} localizes divergences to.

    {!infer} answers "through which hardware structures {e can} this
    finding leak", resolving the finding's address value set against the
    machine's geometry: an access confined to a single cache line cannot
    signal through the set index or the walker.  One that spans lines
    names the walker even within a single page: the secret shifts
    core-internal timing, and that moves a later page walk.  {!closes}
    answers "does {e this}
    configuration close that channel" from the configuration's
    {!Lint.lint_timing} findings, so the linter is the one place that
    maps knobs to channels.  {!open_channels} combines the two (a
    speculative memory finding dies entirely under NONSPEC, which never
    issues a wrong-path memory access).

    Beyond what the audit can trace, inference also names the two
    front-end predictor channels ([Btb], [Rsb]) for [jalr]/[ret]
    findings: predictors are per-core state, not observable LLC
    traffic. *)

(** [infer ~timing f] — the channels finding [f] can leak through on a
    machine with [timing]'s geometry, deduplicated, in
    {!Channel.inferable} order.  Sound over-approximation: contains every
    channel the dynamic audit can localize this leak to. *)
val infer : timing:Config.timing -> Taint.finding -> Channel.t list

(** [closes ~lint ch] — is [ch] shut on a machine whose
    {!Lint.lint_timing} findings are [lint]?  [Walk] is closed iff
    [Cache] and [Dram] are, [Btb] and [Rsb] iff [Purge] is, and every
    other channel iff no finding names it.  Lint a machine once and
    reuse its findings: the partition check samples the index function
    over every region. *)
val closes : lint:Lint.finding list -> Channel.t -> bool

(** [infer] minus the channels [lint] shows closed; empty for speculative
    memory findings when [timing] sets [nonspec_mem]. *)
val open_channels :
  timing:Config.timing -> lint:Lint.finding list -> Taint.finding ->
  Channel.t list
