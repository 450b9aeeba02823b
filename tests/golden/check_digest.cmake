# Golden-output check: runs one bench binary and compares the SHA-256 of
# its stdout with a committed digest. Stderr carries wall-clock and thread
# lines, so it is never hashed.
#
#   cmake -DBENCH=<binary> -DARGS="--quick" -DNAME=bench_fig9 \
#         -DGOLDEN_DIR=<repo>/tests/golden -P check_digest.cmake
#
# <NAME>.sha256 holds the digest; <NAME>.txt holds the stdout it was taken
# from, so a failure can be read as a table diff. tests/golden/regen.sh
# rewrites both after an intended change in results.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME}: ${BENCH} ${ARGS} exited with ${rc}\n${err}")
endif()

string(SHA256 got "${out}")
file(READ "${GOLDEN_DIR}/${NAME}.sha256" want)
string(STRIP "${want}" want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR
          "${NAME}: stdout digest ${got} != committed ${want}\n"
          "Reference tables: ${GOLDEN_DIR}/${NAME}.txt\n"
          "Got:\n${out}\n"
          "If the change in results is intended, run tests/golden/regen.sh "
          "to review the diff and rewrite the digest.")
endif()
message(STATUS "${NAME}: stdout digest ${got} matches")
