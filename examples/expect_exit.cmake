# Run one program and require a given exit status and a diagnostic on
# stderr:
#   cmake -DPROGRAM=<path> -DEXPECTED=<status> -DSTDERR_MATCH=<regex>
#         -P expect_exit.cmake
# A crash (e.g. std::terminate's abort, status 134 in a shell) reports as
# "Subprocess aborted", which is not EXPECTED, so it fails the check.
execute_process(COMMAND "${PROGRAM}" RESULT_VARIABLE status
                OUTPUT_QUIET ERROR_VARIABLE stderr)
if(NOT status STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "${PROGRAM} exited with '${status}', expected "
                      "'${EXPECTED}'; stderr:\n${stderr}")
endif()
if(NOT stderr MATCHES "${STDERR_MATCH}")
  message(FATAL_ERROR "${PROGRAM}'s stderr does not match "
                      "'${STDERR_MATCH}':\n${stderr}")
endif()
