package gpm

// SetTestHookOracleBuild installs fn as the hook run at the start of
// every index construction the engine performs — only the bounded
// watchers' distance matrix is left — with the kind it builds (nil
// uninstalls). Tests count builds through it to prove that queries build
// nothing under any WithOracle kind. Tests that install it must not run
// in parallel.
func SetTestHookOracleBuild(fn func(OracleKind)) { testHookOracleBuild = fn }
