# Included by ctest after the discovered gm_parallel_test cases (see
# tests/CMakeLists.txt). The ThreadPool late-wakeup regression test can fail
# by hanging, so it gets a short timeout instead of the suite-wide 900 s.
set_tests_properties([=[ThreadPoolTest.BackToBackRunsNeverStraddleJobs]=]
                     PROPERTIES TIMEOUT 60)
