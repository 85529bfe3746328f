# Convenience wrapper around dune; `make ci` is what the CI workflow runs.

.PHONY: all build test perfbench-smoke bench-smoke audit-smoke sweep-smoke telemetry-smoke top-smoke bisect-smoke ni-smoke cli-smoke lint lint-channels perf-compare ci clean

all: build

build:
	dune build @all

# The channel-agreement property also runs under two qcheck seeds that
# once found a static/dynamic disagreement, so a regression shows up
# whatever seed `dune runtest` draws.
test:
	dune runtest
	for s in 1018 448712569; do \
		QCHECK_SEED=$$s dune exec test/test_analysis.exe -- test channel-agreement \
			|| { echo "channel-agreement failed under QCHECK_SEED=$$s"; exit 1; }; \
	done

# Reference-equality gate on the host-speed benchmark: a short run of
# spec-cpu and of ni-sched must reproduce every recorded simulated value
# ("correct": true, "failed": 0).  The per-cycle components must bump
# counter handles bound at create, never a counter looked up by name.
perfbench-smoke:
	for w in spec-cpu ni-sched; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 0 \
			| tail -n 1 \
			| python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
			|| { echo "perfbench-smoke: $$w does not match its reference"; exit 1; }; \
	done
	@if grep -rnE 'Stats\.(incr|add)\b' lib/ooo lib/cache lib/llc lib/dram lib/tlb; then \
		echo "perfbench-smoke: bump a Stats.counter bound at create instead"; \
		exit 1; \
	fi

# Short benchmark run that must produce parseable machine-readable output
# (BENCH_run.json snapshot + BENCH_history.jsonl regression database).
bench-smoke:
	dune exec bench/main.exe -- --fast fig5
	dune exec bench/json_check.exe -- --require runs BENCH_run.json
	dune exec bench/json_check.exe -- --history BENCH_history.jsonl

# Leakage audit: exits nonzero unless the MI6 LLC shows zero divergence
# across attacker behaviours AND the baseline leak is localized.
audit-smoke:
	dune exec bin/mi6_sim.exe -- audit --json audit.json

# Domain-parallel sweep determinism gate: the --stats-json snapshot must
# be byte-identical no matter how many domains ran the cells.
sweep-smoke:
	dune exec bin/mi6_sim.exe -- sweep -b gcc,mcf -v base,f+p+m+a --seeds 2 \
		--warmup 2000 --measure 5000 --jobs 1 --stats-json sweep-serial.json
	dune exec bin/mi6_sim.exe -- sweep -b gcc,mcf -v base,f+p+m+a --seeds 2 \
		--warmup 2000 --measure 5000 --jobs 2 --stats-json sweep-parallel.json
	cmp sweep-serial.json sweep-parallel.json

# Telemetry gate: a run streaming JSONL snapshots every 1000 cycles must
# produce a stream that validates (schema, dense seq, increasing cycles)
# with a plausible snapshot count, and the per-cell streams of a sweep
# must be byte-identical between serial and parallel execution.
telemetry-smoke:
	dune exec bin/mi6_sim.exe -- run -b gcc -v base --warmup 2000 \
		--measure 20000 --telemetry telemetry.jsonl --telemetry-every 1000
	dune exec bench/json_check.exe -- --telemetry telemetry.jsonl \
		--min-snapshots 20
	dune exec bin/mi6_sim.exe -- sweep -b gcc,mcf -v base,f+p+m+a \
		--warmup 2000 --measure 5000 --jobs 1 --telemetry tel-serial \
		--telemetry-every 1000 > /dev/null
	dune exec bin/mi6_sim.exe -- sweep -b gcc,mcf -v base,f+p+m+a \
		--warmup 2000 --measure 5000 --jobs 2 --telemetry tel-parallel \
		--telemetry-every 1000 > /dev/null
	for f in tel-serial#*; do \
		cmp "$$f" "tel-parallel#$${f#tel-serial\#}" || exit 1; \
	done
	for f in tel-serial#*; do \
		dune exec bench/json_check.exe -- --telemetry "$$f"; \
	done

# The live-view subcommand must render the latest snapshot of a fresh
# stream in --once (CI) mode.
top-smoke:
	dune exec bin/mi6_sim.exe -- run -b gcc -v base --warmup 2000 \
		--measure 20000 --telemetry telemetry.jsonl --telemetry-every 1000
	dune exec bin/mi6_sim.exe -- top --once telemetry.jsonl

# Time-travel bisection gate: bisect the known BASE leak (spectre-v1 on
# BASE vs the full MI6 variant; exit 1 = divergence found, the expected
# outcome), validate the slice report against the mi6.bisect/1 schema,
# and cross-check that the diverging component hosts the channel the
# leakage auditor blames (audit.json from audit-smoke).  The secret-pair
# run on the same witness must stay clean: spectre-v1 leaks only
# transiently, never through committed state.
bisect-smoke:
	dune exec bin/mi6_sim.exe -- audit --json audit.json > /dev/null
	sh -c 'dune exec bin/mi6_sim.exe -- bisect --witness spectre-v1 \
		--variant-a base --variant-b f+p+m+a --json bisect.json; \
		test $$? -eq 1'
	dune exec bench/json_check.exe -- --bisect bisect.json \
		--agrees-audit audit.json
	dune exec bin/mi6_sim.exe -- bisect --witness spectre-v1 \
		--secret-a 0 --secret-b 1 --json bisect-secret.json
	dune exec bench/json_check.exe -- --bisect bisect-secret.json

# Interrupt-schedule noninterference gate:
#   - a generated adversarial batch on the full MI6 variant must pass
#     clean (exit 0) and its mi6.ni/1 report must validate;
#   - replaying the committed BASE counterexample must falsify (exit 1)
#     and its report must validate too, which (via json_check --ni)
#     requires the Audit localization to name a real leaking channel;
#   - the replay verdicts must be byte-identical across --jobs.
ni-smoke:
	dune build bin/mi6_sim.exe bench/json_check.exe
	dune exec bin/mi6_sim.exe -- ni --count 25 --seed 42 --json ni-fpma.json
	dune exec bench/json_check.exe -- --ni ni-fpma.json
	sh -c 'dune exec bin/mi6_sim.exe -- ni \
		--schedule-file examples/ni/base-counterexample.sched \
		--json ni-base.json; test $$? -eq 1'
	dune exec bench/json_check.exe -- --ni ni-base.json
	sh -c 'dune exec bin/mi6_sim.exe -- ni --jobs 2 \
		--schedule-file examples/ni/base-counterexample.sched \
		--json ni-base-j2.json; test $$? -eq 1'
	cmp ni-base.json ni-base-j2.json

# A zero count or period is a usage error: each of these must exit 2
# with a one-line message, not end in an uncaught exception.
cli-smoke:
	dune build bin/mi6_sim.exe
	for args in "run -b gcc --warmup 1000 --measure 1000 \
			--telemetry telemetry.jsonl --telemetry-every 0" \
		"sweep -b gcc -v base --warmup 1000 --measure 1000 --seeds 0" \
		"bisect --witness spectre-v1 --interval 0"; do \
		dune exec bin/mi6_sim.exe -- $$args > /dev/null 2>&1; got=$$?; \
		if [ $$got -ne 2 ]; then \
			echo "cli-smoke: mi6_sim $$args exited $$got, expected 2"; exit 1; \
		fi; \
	done

# Diff the two most recent bench runs in BENCH_history.jsonl; exits
# nonzero on a cycle or IPC regression past the default 5% thresholds.
perf-compare:
	dune exec bench/compare.exe

# Static constant-time / hardware-invariant lint gate (exit codes:
# 0 = clean, 1 = findings, 2 = usage/IO error):
#   - the MI6 machine configuration must lint clean;
#   - the BASE variant must be flagged, so the linter demonstrably sees
#     violations;
#   - every committed example program in examples/lint/ must get its
#     expected verdict under a 32-instruction speculation window
#     (ct_* clean, everything else flagged).
lint:
	dune build bin/mi6_sim.exe
	dune exec bin/mi6_sim.exe -- lint --machine mi6 --json lint-mi6.json
	sh -c 'dune exec bin/mi6_sim.exe -- lint --machine base --json lint-base.json; test $$? -eq 1'
	sh -c 'dune exec bin/mi6_sim.exe -- lint --witness all --speculative 32 --json lint-witnesses.json; test $$? -eq 1'
	for f in examples/lint/*.hex; do \
		case $$f in examples/lint/ct_*) want=0 ;; *) want=1 ;; esac; \
		dune exec bin/mi6_sim.exe -- lint --hex $$f --speculative 32; got=$$?; \
		if [ $$got -ne $$want ]; then \
			echo "lint: $$f exited $$got, expected $$want"; exit 1; \
		fi; \
	done

# Channel-inference gate (mi6.lint/2 reports):
#   - the full witness corpus under --channels must produce a report
#     that validates against json_check --lint (every speculative
#     finding names a channel) and is byte-identical across two runs;
#   - every insecure variant (base, flush, part, miss, arb, nonspec,
#     f+p+m+a) must be flagged, with a validating report that maps each
#     config finding to the channel it leaves open; the MI6 machine must
#     lint clean over the same shared-region demo ledger;
#   - every committed hex example must get its expected verdict with
#     channel lowering on (ct_* clean, everything else flagged).
lint-channels:
	dune build bin/mi6_sim.exe bench/json_check.exe
	sh -c 'dune exec bin/mi6_sim.exe -- lint --witness all --speculative 32 \
		--channels --json lint-channels.json; test $$? -eq 1'
	sh -c 'dune exec bin/mi6_sim.exe -- lint --witness all --speculative 32 \
		--channels --json lint-channels-2.json; test $$? -eq 1'
	cmp lint-channels.json lint-channels-2.json
	dune exec bench/json_check.exe -- --lint lint-channels.json
	for v in base flush part miss arb nonspec f+p+m+a; do \
		dune exec bin/mi6_sim.exe -- lint --machine $$v --channels \
			--json lint-channels-$$v.json; got=$$?; \
		if [ $$got -ne 1 ]; then \
			echo "lint-channels: machine $$v exited $$got, expected 1"; exit 1; \
		fi; \
		dune exec bench/json_check.exe -- --lint lint-channels-$$v.json \
			|| exit 1; \
	done
	dune exec bin/mi6_sim.exe -- lint --machine mi6 --channels \
		--json lint-channels-mi6.json
	dune exec bench/json_check.exe -- --lint lint-channels-mi6.json
	for f in examples/lint/*.hex; do \
		case $$f in examples/lint/ct_*) want=0 ;; *) want=1 ;; esac; \
		dune exec bin/mi6_sim.exe -- lint --hex $$f --speculative 32 \
			--channels --json "$${f%.hex}-channels.json"; got=$$?; \
		if [ $$got -ne $$want ]; then \
			echo "lint-channels: $$f exited $$got, expected $$want"; exit 1; \
		fi; \
		dune exec bench/json_check.exe -- --lint "$${f%.hex}-channels.json" \
			|| exit 1; \
	done
	rm -f examples/lint/*-channels.json

ci: build test perfbench-smoke bench-smoke audit-smoke sweep-smoke telemetry-smoke top-smoke bisect-smoke ni-smoke cli-smoke lint lint-channels

clean:
	dune clean
	rm -f BENCH_run.json BENCH_history.jsonl audit.json \
		sweep-serial.json sweep-parallel.json sweep-history.jsonl \
		sweep-serial.log sweep-parallel.log \
		trace.json metrics.json profile.json profile.folded \
		lint-mi6.json lint-base.json lint-witnesses.json \
		lint-channels*.json examples/lint/*-channels.json \
		bisect.json bisect-secret.json \
		ni-fpma.json ni-base.json ni-base-j2.json ni-falsified.sched \
		telemetry.jsonl tel-serial\#* tel-parallel\#*
