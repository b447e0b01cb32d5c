package cluster

// OracleChecks exposes to the external test package how many declared
// quiescences the exact check has confirmed (oracle_test.go).
func OracleChecks() int64 { return oracleChecks.Load() }
