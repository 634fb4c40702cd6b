#include "description/wsdl.hpp"

#include <algorithm>

#include "support/errors.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace sariadne::desc {

namespace {

WsdlPart parse_part(const xml::XmlNode& node) {
    return WsdlPart{std::string(node.required_attribute("name")),
                    std::string(node.required_attribute("type"))};
}

}  // namespace

WsdlDescription parse_wsdl(const xml::XmlNode& root) {
    if (root.name() != "wsdl") {
        throw ParseError("expected <wsdl> root element, got <" + root.name() + ">");
    }
    WsdlDescription wsdl;
    wsdl.service_name = root.required_attribute("name");
    for (const auto& node : root.children()) {
        if (node.name() != "operation") {
            throw ParseError("unexpected element <" + node.name() +
                             "> inside <wsdl>");
        }
        WsdlOperation op;
        op.name = node.required_attribute("name");
        for (const auto& part : node.children()) {
            if (part.name() == "input") {
                op.inputs.push_back(parse_part(part));
            } else if (part.name() == "output") {
                op.outputs.push_back(parse_part(part));
            } else {
                throw ParseError("unexpected element <" + part.name() +
                                 "> inside <operation>");
            }
        }
        wsdl.operations.push_back(std::move(op));
    }
    return wsdl;
}

WsdlDescription parse_wsdl(std::string_view xml_text) {
    return parse_wsdl(xml::parse(xml_text).root);
}

std::string serialize_wsdl(const WsdlDescription& wsdl) {
    xml::XmlNode root("wsdl");
    root.set_attribute("name", wsdl.service_name);
    for (const auto& op : wsdl.operations) {
        xml::XmlNode node("operation");
        node.set_attribute("name", op.name);
        for (const auto& part : op.inputs) {
            xml::XmlNode input("input");
            input.set_attribute("name", part.name);
            input.set_attribute("type", part.type);
            node.add_child(std::move(input));
        }
        for (const auto& part : op.outputs) {
            xml::XmlNode output("output");
            output.set_attribute("name", part.name);
            output.set_attribute("type", part.type);
            node.add_child(std::move(output));
        }
        root.add_child(std::move(node));
    }
    return xml::write(root);
}

bool operation_conforms(const WsdlOperation& provided,
                        const WsdlOperation& required) {
    if (provided.name != required.name) return false;
    const auto has_part = [](const std::vector<WsdlPart>& parts,
                             const WsdlPart& wanted) {
        return std::find(parts.begin(), parts.end(), wanted) != parts.end();
    };
    for (const auto& part : required.inputs) {
        if (!has_part(provided.inputs, part)) return false;
    }
    for (const auto& part : required.outputs) {
        if (!has_part(provided.outputs, part)) return false;
    }
    return true;
}

bool wsdl_conforms(const WsdlDescription& provided,
                   const WsdlDescription& required) {
    for (const auto& wanted : required.operations) {
        const bool found =
            std::ranges::any_of(provided.operations,
                                [&](const WsdlOperation& op) {
                                    return operation_conforms(op, wanted);
                                });
        if (!found) return false;
    }
    return true;
}

}  // namespace sariadne::desc
