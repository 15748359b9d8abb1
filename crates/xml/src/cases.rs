// Well-formed documents covering every construct the tokenizer knows.
// Shared by `events.rs`'s tests and the workspace's `tests/fuzz_xml.rs`
// (which seeds its mutations from them), through `include!`.
const CASES: &[&str] = &[
    "<a/>",
    r#"<a x="1" y="two"><b>hi</b><b>bye</b></a>"#,
    "<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</a>",
    "<a><!-- note --><![CDATA[1 < 2]]><?pi data?></a>",
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE a [<!ELEMENT a ANY>]>\n<!-- pre -->\n<a/>",
    "<p>one <b>two</b> three</p>",
    "<données>héllo ✓</données>",
    "<a>x<!--c-->y</a>",
    "<a><![CDATA[]]></a>",
    "<a>t<![CDATA[c]]>u<![CDATA[d]]></a>",
    "<a  x = '1'\n y=\"2\" ><b /><b></b ><c>&amp;joined&#33;</c></a>",
    "<r><p><s><t>v</t></s></p><q><s><t>v</t></s></q></r>",
    "<a/><!-- after --><?post data?>",
    "<a\n>\n  text\n</a\n>",
];
