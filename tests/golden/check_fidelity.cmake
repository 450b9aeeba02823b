# Fidelity check: runs one bench binary and asserts the orderings of the
# paper's results that EXPERIMENTS.md claims, read from its stdout tables.
# Unlike the golden digest, it passes for any numbers that keep the
# orderings, so a change that moves results must still reproduce the paper.
#
#   cmake -DBENCH=<binary> -DARGS="--quick" -DNAME=bench_table8 \
#         -P check_fidelity.cmake
#
# NAME selects the assertion:
#   bench_table8  Table VIII weighted average: RF > kNN > max(CNN, LR).
#   bench_table3  Table III: mean Down+Up F of Streaming > that of Messaging.
#   bench_table6  Table VI: the Lab row's mean similarity over the app
#                 columns (not their STD columns) > that of every carrier.
# To check saved output, pass -DBENCH=cat -DARGS=<file>.
cmake_minimum_required(VERSION 3.16)
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME}: ${BENCH} ${ARGS} exited with ${rc}\n${err}")
endif()

# Table rows ("| a | b |") of the output, one list entry per line.
string(REPLACE ";" "," out "${out}")
string(REPLACE "\n" ";" lines "${out}")
list(FILTER lines INCLUDE REGEX "^\\|.*\\|$")

# The trimmed cells of one table row, as a list.
function(row_cells line out_var)
  string(REGEX REPLACE "^\\|(.*)\\|$" "\\1" body "${line}")
  string(REPLACE "|" ";" cells "${body}")
  set(trimmed "")
  foreach(cell IN LISTS cells)
    string(STRIP "${cell}" cell)
    list(APPEND trimmed "${cell}")
  endforeach()
  set(${out_var} "${trimmed}" PARENT_SCOPE)
endfunction()

# Index of column `name` in the header row whose first cell is `first`.
function(column_index first name out_var)
  foreach(line IN LISTS lines)
    row_cells("${line}" cells)
    list(GET cells 0 head)
    if(head STREQUAL first)
      list(FIND cells "${name}" index)
      if(index LESS 0)
        message(FATAL_ERROR "${NAME}: no column '${name}' in header: ${line}")
      endif()
      set(${out_var} ${index} PARENT_SCOPE)
      return()
    endif()
  endforeach()
  message(FATAL_ERROR "${NAME}: no table header starting with '${first}'")
endfunction()

# A three-decimal table value ("0.825") as an integer in thousandths; every
# figure in the messages below is in thousandths.
function(milli value out_var)
  if(NOT value MATCHES "^([0-9]+)\\.([0-9][0-9][0-9])$")
    message(FATAL_ERROR "${NAME}: '${value}' is not a three-decimal value")
  endif()
  set(whole "${CMAKE_MATCH_1}")
  set(frac "${CMAKE_MATCH_2}")
  # Leading zeros off, so math(EXPR) reads decimal.
  string(REGEX REPLACE "^0+([0-9])" "\\1" whole "${whole}")
  string(REGEX REPLACE "^0+([0-9])" "\\1" frac "${frac}")
  math(EXPR result "${whole} * 1000 + ${frac}")
  set(${out_var} ${result} PARENT_SCOPE)
endfunction()

# Sum (in thousandths) and count of column `col` over rows whose first
# cell is `key`.
function(sum_rows key col sum_var count_var)
  set(sum 0)
  set(count 0)
  foreach(line IN LISTS lines)
    row_cells("${line}" cells)
    list(GET cells 0 head)
    if(head STREQUAL key)
      list(GET cells ${col} cell)
      milli("${cell}" v)
      math(EXPR sum "${sum} + ${v}")
      math(EXPR count "${count} + 1")
    endif()
  endforeach()
  if(count EQUAL 0)
    message(FATAL_ERROR "${NAME}: no '${key}' row")
  endif()
  set(${sum_var} ${sum} PARENT_SCOPE)
  set(${count_var} ${count} PARENT_SCOPE)
endfunction()

if(NAME STREQUAL "bench_table8")
  column_index("Algorithm" "Average (weighted)" col)
  foreach(model RandomForest kNN CNN LogisticRegression)
    sum_rows(${model} ${col} avg_${model} n)
    if(NOT n EQUAL 1)
      message(FATAL_ERROR "${NAME}: ${n} rows for ${model}")
    endif()
  endforeach()
  set(avg_baseline ${avg_CNN})
  if(avg_LogisticRegression GREATER avg_baseline)
    set(avg_baseline ${avg_LogisticRegression})
  endif()
  set(summary "RF ${avg_RandomForest}, kNN ${avg_kNN}, CNN ${avg_CNN}, LR ${avg_LogisticRegression}")
  if(NOT (avg_RandomForest GREATER avg_kNN AND avg_kNN GREATER avg_baseline))
    message(FATAL_ERROR "${NAME}: Table VIII order RF > kNN > max(CNN, LR) broken: "
                        "${summary}")
  endif()
  message(STATUS "${NAME}: RF > kNN > max(CNN, LR) holds: ${summary}")
elseif(NAME STREQUAL "bench_table3")
  column_index("Category" "Down+Up F" col)
  sum_rows(Streaming ${col} sum_s n_s)
  sum_rows(Messaging ${col} sum_m n_m)
  # mean_s > mean_m, cross-multiplied to stay in integers.
  math(EXPR lhs "${sum_s} * ${n_m}")
  math(EXPR rhs "${sum_m} * ${n_s}")
  set(summary "Streaming ${sum_s}/${n_s} apps, Messaging ${sum_m}/${n_m} apps")
  if(NOT lhs GREATER rhs)
    message(FATAL_ERROR "${NAME}: Table III mean F of Streaming not above Messaging: "
                        "${summary}")
  endif()
  message(STATUS "${NAME}: Streaming > Messaging holds: ${summary}")
elseif(NAME STREQUAL "bench_table6")
  # Every row after the header is a network, except the Average row; each
  # is summed over the same app columns, so sums compare as means.
  set(app_cols "")
  set(carriers "")
  foreach(line IN LISTS lines)
    row_cells("${line}" cells)
    list(GET cells 0 head)
    if(head STREQUAL "Network")
      list(LENGTH cells n)
      math(EXPR last "${n} - 1")
      foreach(i RANGE 1 ${last})
        list(GET cells ${i} cell)
        if(NOT cell STREQUAL "STD")
          list(APPEND app_cols ${i})
        endif()
      endforeach()
    elseif(app_cols AND NOT head STREQUAL "Average")
      set(sum 0)
      foreach(i IN LISTS app_cols)
        list(GET cells ${i} cell)
        milli("${cell}" v)
        math(EXPR sum "${sum} + ${v}")
      endforeach()
      if(head STREQUAL "Lab")
        set(lab ${sum})
      else()
        list(APPEND carriers "${head}")
        set(sum_${head} ${sum})
      endif()
    endif()
  endforeach()
  if(NOT app_cols)
    message(FATAL_ERROR "${NAME}: no table header starting with 'Network'")
  endif()
  if(NOT DEFINED lab OR NOT carriers)
    message(FATAL_ERROR "${NAME}: need a Lab row and at least one carrier row")
  endif()
  list(LENGTH app_cols n_apps)
  set(summary "Lab ${lab}")
  set(failed "")
  foreach(carrier IN LISTS carriers)
    string(APPEND summary ", ${carrier} ${sum_${carrier}}")
    if(NOT lab GREATER sum_${carrier})
      list(APPEND failed "${carrier}")
    endif()
  endforeach()
  string(APPEND summary " (sums over ${n_apps} apps)")
  if(failed)
    string(JOIN ", " failed ${failed})
    message(FATAL_ERROR "${NAME}: Table VI Lab similarity not above ${failed}: ${summary}")
  endif()
  message(STATUS "${NAME}: Lab > every carrier holds: ${summary}")
else()
  message(FATAL_ERROR "check_fidelity: no assertion for NAME '${NAME}'")
endif()
