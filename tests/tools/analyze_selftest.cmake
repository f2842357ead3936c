# Self-test for tools/analyze.py via `cmake -P` (so the default ctest
# sweep covers all thirteen rules without a pytest dependency).
#
# Invoked from tests/CMakeLists.txt as:
#   cmake -DPYTHON=... -DSCRIPT=... -DFIXTURE=... -P analyze_selftest.cmake
#
# The sabotage fixture under tests/tools/analyze_fixture holds one
# deliberate violation per facet of each rule, plus neighbouring clean,
# sanctioned and suppressed code that must NOT fire:
#   layering       an upward include (common -> core), an undeclared
#                  edge (core -> serve), an upward edge out of the
#                  intra-query parallelism module (parallel -> serve),
#                  an upward edge into the federation layer
#                  (serve -> federate), an unresolvable include, and a
#                  two-file include cycle (em/cycle_a <-> em/cycle_b)
#   charge-site    `++` and `+=` on issuance counters outside
#                  core/sink.h (a read and a suppressed mutation stay
#                  clean)
#   hotpath-alloc  an owning std::vector local, a `new`, and a
#                  push_back onto a non-scratch member, all inside a
#                  *Into hot body (ScratchVec locals, .vec() refs,
#                  out-parameters, and the allocating Query() compat
#                  overload stay clean)
#   posture        a class with its own unmarked mutable member while a
#                  SIBLING class in the same file carries the marker,
#                  two unmarked classes whose heads carry attributes
#                  (`alignas(64)`, `[[nodiscard]]`), and a wrapper
#                  hiding a posture-marked substrate without an alias
#                  export (exported and chained wrappers stay clean)
#   guard          a missing guard and a `#pragma once` (every other
#                  fixture header carries its path-derived guard)
#   namespace      a header without `namespace topk`
#   sleep/io       one bare use each, plus a sleep under fault/ (sleep
#                  has no sanctioned home; suppressed uses and the em/
#                  io home stay clean)
#   tracer/function one bare use each (suppressed uses stay clean)
#   epoch          a bare member of an epoch-published type (a
#                  `// epoch:` member behind an access specifier, an
#                  std::atomic, a suppressed and an unmarked-type member
#                  stay clean)
#   literals       core/literals.h: a std::mt19937 after "http://x" on
#                  one line, a sleep_for after a "/*" literal, and an
#                  assert after a 1'000 digit separator must be flagged;
#                  a "rand(" inside a string must not be
# Every finding is pinned by file:line and rule, and the exit status
# (= the finding count) must equal the number of pins: an extra finding
# means a suppression or an approved pattern regressed; a missing one
# means a rule stopped firing.

foreach(var PYTHON SCRIPT FIXTURE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()

execute_process(
  COMMAND ${PYTHON} ${SCRIPT} ${FIXTURE}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

set(expected
  "/common/filey.h:14: [io]"
  "/common/uses_core.h:7: [layering] module 'common' may not include 'core'"
  "/core/attributed.h:12: [posture] class SabAligned"
  "/core/attributed.h:20: [posture] class SabNodiscard"
  "/core/cheater.h:19: [charge-site]"
  "/core/cheater.h:20: [charge-site]"
  "/core/funky.h:14: [function]"
  "/core/hidden_substrate.h:30: [posture] class SabBadWrapper"
  "/core/hot.h:22: [hotpath-alloc] owning std::vector local"
  "/core/hot.h:23: [hotpath-alloc] `new`"
  "/core/hot.h:30: [hotpath-alloc] push_back on `bad_`"
  "/core/literals.h:18: [random]"
  "/core/literals.h:28: [sleep]"
  "/core/literals.h:35: [assert]"
  "/core/tracy.h:12: [tracer]"
  "/core/two_class.h:28: [posture] class SabCacheyInner"
  "/core/unguarded.h:1: [guard] missing `#ifndef TOPK_CORE_UNGUARDED_H_`"
  "/core/unguarded.h:1: [namespace]"
  "/core/unguarded.h:5: [guard] `#pragma once`"
  "/core/upward.h:9: [layering] include \"core/nonexistent.h\" does not resolve"
  "/core/upward.h:10: [layering] module 'core' may not include 'serve'"
  "/em/cycle_b.h:6: [layering] include cycle: em/cycle_a.h"
  "/fault/sleeper.h:14: [sleep]"
  "/parallel/escalator.h:9: [layering] module 'parallel' may not include 'serve'"
  "/serve/epochy.h:18: [epoch]"
  "/serve/sleepy.h:13: [sleep]"
  "/serve/uses_federate.h:8: [layering] module 'serve' may not include 'federate'")

foreach(finding IN LISTS expected)
  string(FIND "${out}" "${finding}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "missing expected finding '${finding}'\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
endforeach()

list(LENGTH expected total)
if(NOT rc EQUAL total)
  message(FATAL_ERROR "expected exactly ${total} findings, analyze.py "
                      "exited ${rc} (a suppression or approved pattern "
                      "regressed, or a rule stopped firing)\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()

message(STATUS "analyze.py: all 13 rules self-test passed "
               "(${total} findings)")
