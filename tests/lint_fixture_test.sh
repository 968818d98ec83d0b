#!/usr/bin/env bash
# Fixture tests for tools/ecrpq_lint: every project rule must fire on its
# seeded-violation fixture, stay quiet on the clean fixture, and the real
# tree must pass. Registered as ctest "lint_fixture_test" and run by
# tools/ci.sh stage 11.
#
# Usage: lint_fixture_test.sh <repo_root> <build_dir>
set -u

REPO_ROOT="${1:?usage: lint_fixture_test.sh <repo_root> <build_dir>}"
BUILD_DIR="${2:?usage: lint_fixture_test.sh <repo_root> <build_dir>}"
LINT="python3 ${REPO_ROOT}/tools/ecrpq_lint/ecrpq_lint.py --repo-root ${REPO_ROOT} --build-dir ${BUILD_DIR}"
FIXTURES="${REPO_ROOT}/tests/lint_fixtures"

failures=0
check() {  # check <name> <expected_rc> <expect_substring|-> <cmd...>
  local name="$1" expected_rc="$2" expect="$3"
  shift 3
  local out rc
  out="$("$@" 2>&1)"
  rc=$?
  if [ "${rc}" -ne "${expected_rc}" ]; then
    echo "FAIL ${name}: rc=${rc}, expected ${expected_rc}"
    echo "${out}" | sed 's/^/    /'
    failures=$((failures + 1))
    return
  fi
  if [ "${expect}" != "-" ] && ! grep -qF -- "${expect}" <<<"${out}"; then
    echo "FAIL ${name}: output missing '${expect}'"
    echo "${out}" | sed 's/^/    /'
    failures=$((failures + 1))
    return
  fi
  echo "ok   ${name}"
}

# --- Each rule fires on its seeded fixture. -------------------------------
check naked_mutex_fires 1 "[ecrpq-naked-mutex]" \
    ${LINT} "${FIXTURES}/bad_naked_mutex.cc"
check budget_poll_fires 1 "[ecrpq-budget-poll]" \
    ${LINT} --treat-as-engine bad_budget_poll.cc "${FIXTURES}/bad_budget_poll.cc"
check unordered_emission_fires 1 "[ecrpq-unordered-emission]" \
    ${LINT} "${FIXTURES}/bad_unordered_emission.cc"
check dcheck_side_effect_fires 1 "[ecrpq-dcheck-side-effects]" \
    ${LINT} "${FIXTURES}/bad_dcheck_side_effect.cc"
check raw_worklist_fires 1 "[ecrpq-raw-worklist]" \
    ${LINT} --treat-as-worklist-scope bad_raw_worklist.cc \
    "${FIXTURES}/bad_raw_worklist.cc"
check raw_logging_fires 1 "[ecrpq-raw-logging]" \
    ${LINT} --treat-as-logging-scope bad_raw_logging.cc \
    "${FIXTURES}/bad_raw_logging.cc"

# --- Precision checks. ----------------------------------------------------
# NOLINT(ecrpq-naked-mutex) suppresses; the 4 unsuppressed sites remain.
n_naked="$(${LINT} --rule ecrpq-naked-mutex "${FIXTURES}/bad_naked_mutex.cc" \
    2>/dev/null | grep -c 'ecrpq-naked-mutex')"
if [ "${n_naked}" -eq 4 ]; then
  echo "ok   naked_mutex_nolint_suppression (4 findings, suppressed site quiet)"
else
  echo "FAIL naked_mutex_nolint_suppression: ${n_naked} findings, expected 4"
  failures=$((failures + 1))
fi
# budget-poll only applies to engine TUs: same file without --treat-as-engine
# is not a finding.
check budget_poll_scoped_to_engines 0 - \
    ${LINT} "${FIXTURES}/bad_budget_poll.cc"
# The aggregating (non-emitting) loop in the unordered fixture must not add
# a third finding.
n_unord="$(${LINT} "${FIXTURES}/bad_unordered_emission.cc" 2>/dev/null \
    | grep -c 'ecrpq-unordered-emission')"
if [ "${n_unord}" -eq 2 ]; then
  echo "ok   unordered_emission_precision (2 findings, aggregation loop quiet)"
else
  echo "FAIL unordered_emission_precision: ${n_unord} findings, expected 2"
  failures=$((failures + 1))
fi
# raw-worklist only applies inside src/eval + src/graphdb (or files forced
# into scope): the same fixture without --treat-as-worklist-scope is quiet.
check raw_worklist_scoped_to_hot_paths 0 - \
    ${LINT} --rule ecrpq-raw-worklist "${FIXTURES}/bad_raw_worklist.cc"
# 2 seeded findings; the NOLINT'd 0/1-BFS deque stays quiet.
n_worklist="$(${LINT} --treat-as-worklist-scope bad_raw_worklist.cc \
    "${FIXTURES}/bad_raw_worklist.cc" 2>/dev/null \
    | grep -c 'ecrpq-raw-worklist')"
if [ "${n_worklist}" -eq 2 ]; then
  echo "ok   raw_worklist_precision (2 findings, NOLINT'd BFS deque quiet)"
else
  echo "FAIL raw_worklist_precision: ${n_worklist} findings, expected 2"
  failures=$((failures + 1))
fi
# raw-logging only applies inside src/service + src/eval (or files forced
# into scope): the same fixture without the scope flag is quiet.
check raw_logging_scoped_to_service_eval 0 - \
    ${LINT} --rule ecrpq-raw-logging "${FIXTURES}/bad_raw_logging.cc"
# 3 seeded findings; the NOLINT'd last-resort write, the FILE*-typed log
# stream and the snprintf-into-buffer all stay quiet.
n_logging="$(${LINT} --treat-as-logging-scope bad_raw_logging.cc \
    "${FIXTURES}/bad_raw_logging.cc" 2>/dev/null \
    | grep -c 'ecrpq-raw-logging')"
if [ "${n_logging}" -eq 3 ]; then
  echo "ok   raw_logging_precision (3 findings, FILE*/snprintf/NOLINT quiet)"
else
  echo "FAIL raw_logging_precision: ${n_logging} findings, expected 3"
  failures=$((failures + 1))
fi
# Pure DCHECK conditions in the dcheck fixture stay quiet (3 seeded, 2 clean).
n_dcheck="$(${LINT} "${FIXTURES}/bad_dcheck_side_effect.cc" 2>/dev/null \
    | grep -c 'ecrpq-dcheck-side-effects')"
if [ "${n_dcheck}" -eq 3 ]; then
  echo "ok   dcheck_side_effect_precision (3 findings, pure conditions quiet)"
else
  echo "FAIL dcheck_side_effect_precision: ${n_dcheck} findings, expected 3"
  failures=$((failures + 1))
fi

# --- Negative control + the real tree. ------------------------------------
check clean_fixture_passes 0 - ${LINT} "${FIXTURES}/clean.cc"
check full_tree_passes 0 - ${LINT}

# --- Annotation misuse: compile-fail under clang, well-formed under GCC. ---
# bad_annotation_misuse.cc must be ordinary valid C++ when the annotations
# are no-ops (GCC / plain clang)...
if command -v g++ >/dev/null 2>&1; then
  check annotation_noop_compiles 0 - \
      g++ -std=c++20 -fsyntax-only -I "${REPO_ROOT}/src" \
      "${FIXTURES}/bad_annotation_misuse.cc"
fi
# ...and must FAIL to compile once -Wthread-safety is promoted to errors —
# the proof that the ECRPQ_ANALYZE=thread-safety mode has teeth.
if command -v clang++ >/dev/null 2>&1; then
  if clang++ -std=c++20 -fsyntax-only -I "${REPO_ROOT}/src" \
      -Wthread-safety -Wthread-safety-beta \
      -Werror=thread-safety -Werror=thread-safety-beta \
      "${FIXTURES}/bad_annotation_misuse.cc" >/dev/null 2>&1; then
    echo "FAIL annotation_misuse_compile_fail: misuse fixture compiled clean"
    failures=$((failures + 1))
  else
    echo "ok   annotation_misuse_compile_fail"
  fi
else
  echo "skip annotation_misuse_compile_fail (clang++ not installed; the"
  echo "     thread-safety analysis only exists in clang — degrade policy)"
fi

if [ "${failures}" -ne 0 ]; then
  echo "lint_fixture_test: ${failures} failure(s)"
  exit 1
fi
echo "lint_fixture_test: all checks passed"
