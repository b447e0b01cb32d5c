// Package suppress is an abcdlint fixture for the suppression comment
// syntax: //abcdlint:ignore rule -- reason, trailing the flagged line or
// alone on the line directly above. A trailing suppression covers only its
// own line, one without a reason is not honored, and one naming no rule
// of the suite or silencing no finding is reported.
package suppress

import "errors"

func fail() error { return errors.New("no") }

// Cases exercises every suppression shape.
func Cases() {
	//abcdlint:ignore errcheck -- fixture: suppressed by the line above
	fail()

	fail() //abcdlint:ignore errcheck -- fixture: suppressed on the same line
	fail() // want: a trailing suppression does not cover the next line

	//abcdlint:ignore errcheck -- fixture: alone on its line, it covers the next line only
	fail()
	fail() // want: two lines below an own-line suppression

	//abcdlint:ignore errcheck
	fail() // want: suppression without a reason is not honored

	//abcdlint:ignore locksafe -- fixture: a different rule does not cover errcheck
	fail() // want: wrong rule

	fail() // want: no suppression at all

	//abcdlint:ignore hotpaht -- fixture: want a report, the suite has no such rule
	_ = fail()

	//abcdlint:ignore errcheck -- fixture: want a report, the next line drops no error
	_ = fail()
}
