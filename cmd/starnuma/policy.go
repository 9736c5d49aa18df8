package main

import (
	"fmt"

	"starnuma/internal/migrate"
)

const policyUsage = `usage: starnuma policy list

Commands:
  list  list registered migration policies and their parameters

Select a policy for a run with -policy name or -policy 'name:{json-params}',
e.g. -policy 'starnuma:{"hi_start":64}'.
`

// policyMain implements the `starnuma policy` subcommands over the
// migrate registry — the same source of truth -policy validation, the
// scenario DSL and the policysweep tournament use.
func policyMain(args []string) int {
	return dispatch("policy", policyUsage, args, map[string]func([]string) int{
		"list": policyList,
	})
}

func policyList([]string) int {
	for _, d := range migrate.Policies() {
		fmt.Printf("%-18s %s\n", d.Name, d.Doc)
		for _, p := range d.Params {
			fmt.Printf("    %-24s %s (default %g)\n", p.Name, p.Doc, p.Default)
		}
	}
	return exitOK
}
