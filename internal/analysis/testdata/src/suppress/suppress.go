// Package suppress is an abcdlint fixture for the suppression comment
// syntax: //abcdlint:ignore rule -- reason, on the flagged line or the
// line directly above. A suppression without a reason is not honored, and
// one naming no rule of the suite is reported.
package suppress

import "errors"

func fail() error { return errors.New("no") }

// Cases exercises every suppression shape.
func Cases() {
	//abcdlint:ignore errcheck -- fixture: suppressed by the line above
	fail()

	fail() //abcdlint:ignore errcheck -- fixture: suppressed on the same line

	//abcdlint:ignore errcheck
	fail() // want: suppression without a reason is not honored

	//abcdlint:ignore locksafe -- fixture: a different rule does not cover errcheck
	fail() // want: wrong rule

	fail() // want: no suppression at all

	//abcdlint:ignore hotpaht -- fixture: want a report, the suite has no such rule
	_ = fail()
}
