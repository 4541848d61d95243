# Runs a command and fails unless it exits with the expected status.
#   cmake -DEXPECT=2 "-DCOMMAND=prog|arg1|arg2" -P expect_exit.cmake
# Arguments are '|'-separated because ';' would be split by add_test.
string(REPLACE "|" ";" argv "${COMMAND}")
execute_process(COMMAND ${argv} RESULT_VARIABLE status)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "'${argv}' exited with ${status}, expected ${EXPECT}")
endif()
