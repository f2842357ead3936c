# Exercises tools/summarize_bench.py via `cmake -P` (so the default ctest
# sweep covers the tool without a pytest dependency).
#
# Invoked from tests/CMakeLists.txt as:
#   cmake -DPYTHON=... -DSCRIPT=... -DFIXTURES=... -P summarize_bench_test.cmake
#
# A well-formed bench output must summarize cleanly (exit 0, rendering the
# google-benchmark rows and passing plain-text tables through); a missing
# input file, or a section that yields no row or line, must fail with a
# nonzero exit and a diagnostic — a silently empty summary would be
# mistaken for a clean run when diffed against EXPERIMENTS.md.

foreach(var PYTHON SCRIPT FIXTURES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()

function(expect_run rc_want out_want)
  # Remaining args: command line after ${PYTHON} ${SCRIPT}.
  execute_process(
    COMMAND ${PYTHON} ${SCRIPT} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc_want STREQUAL "zero" AND NOT rc EQUAL 0)
    message(FATAL_ERROR "expected success, got rc=${rc}\nargs: ${ARGN}\nstderr: ${err}")
  endif()
  if(rc_want STREQUAL "nonzero" AND rc EQUAL 0)
    message(FATAL_ERROR "expected failure, got rc=0\nargs: ${ARGN}\nstdout: ${out}")
  endif()
  if(out_want AND NOT "${out}${err}" MATCHES "${out_want}")
    message(FATAL_ERROR "output does not match \"${out_want}\"\nargs: ${ARGN}\nstdout: ${out}\nstderr: ${err}")
  endif()
endfunction()

expect_run(zero "BM_Thm1CoreSet" ${FIXTURES}/good_bench_output.txt)
expect_run(zero "off ns/q"       ${FIXTURES}/good_bench_output.txt)
expect_run(nonzero "cannot read" ${FIXTURES}/no_such_file.txt)
expect_run(nonzero "section bench_interval yielded no row"
           ${FIXTURES}/empty_section_bench_output.txt)

message(STATUS "summarize_bench.py: all checks passed")
