# Suppression budget gate: fails when the tree under ROOT carries more
# `cad-lint: allow` lines than BUDGET. Every suppression is a finding the
# linter was told to ignore, so the count may only fall; lower BUDGET in
# tools/cad_lint/CMakeLists.txt when a suppression goes away.
#
#   cmake -DROOT=src -DBUDGET=45 -P tools/cad_lint/allow_budget.cmake
if(NOT DEFINED ROOT OR NOT DEFINED BUDGET)
  message(FATAL_ERROR "usage: cmake -DROOT=<dir> -DBUDGET=<n> -P allow_budget.cmake")
endif()
file(GLOB_RECURSE files "${ROOT}/*")
set(count 0)
set(listing "")
foreach(path IN LISTS files)
  file(READ "${path}" text)
  # One match per suppression line: the marker never appears twice on a line.
  string(REGEX MATCHALL "cad-lint: allow" hits "${text}")
  list(LENGTH hits n)
  if(n GREATER 0)
    math(EXPR count "${count} + ${n}")
    string(APPEND listing "  ${n}  ${path}\n")
  endif()
endforeach()
if(count GREATER BUDGET)
  message(FATAL_ERROR "${count} `cad-lint: allow` lines under ${ROOT}, budget "
                      "${BUDGET}: fix the new finding instead of suppressing "
                      "it.\n${listing}")
endif()
message(STATUS "${count} `cad-lint: allow` lines under ${ROOT} (budget ${BUDGET})")
